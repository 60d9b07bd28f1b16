package backend

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"aimes/internal/batch"
	"aimes/internal/core"
	"aimes/internal/pilot"
	"aimes/internal/site"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// The worker wire protocol, layered (bottom up):
//
//   - Transport (transport.go): a byte stream to the worker — child-process
//     stdio pipes, or TCP with a shared-secret handshake.
//   - Frames (this file): 4-byte big-endian payload length + one payload.
//   - Codec (codec_binary.go): the payload encoding — one compact binary
//     form, spoken from the first frame (init included) by both sides.
//   - Session (session.go): request/response correlation, ordered event
//     replay, crash detection.
//
// Requests and responses alternate strictly (the worker is single-threaded
// by design — its engine is), and every response carries the ordered events
// (trace records, completions) the operation produced, so the client can
// replay them into its sink before the call returns, preserving the local
// backend's callback order.

// DefaultMaxFrame bounds a single frame when the transport does not set its
// own limit. Sizing: the largest legitimate frames are an enact request
// carrying a workload descriptor (a 2048-task workload is ~1 MB — workloads
// ride as JSON blobs inside the binary codec) and a Step response whose
// events carry a full wire batch of trace records (a 512-event batch is well
// under 100 KB). 256 MiB leaves two-plus orders of magnitude of
// headroom over both while still catching a corrupt or hostile length
// prefix before it turns into a multi-gigabyte allocation.
const DefaultMaxFrame = 256 << 20

// frameLimit resolves a configured frame-size limit (0 means the default).
func frameLimit(limit int) int {
	if limit <= 0 {
		return DefaultMaxFrame
	}
	return limit
}

// finishFrame patches the 4-byte length header reserved at the front of buf
// and enforces the frame-size limit. Callers build a frame by appending the
// encoded payload after a 4-byte placeholder (buf = buf[:4] then codec
// appends), so the header patch makes the whole frame one contiguous slice —
// and one Write, which matters on TCP (one segment, no tinygram split)
// and keeps the stdio hot path at a single syscall.
func finishFrame(buf []byte, limit int) error {
	body := len(buf) - 4
	if body > limit {
		return fmt.Errorf("backend: frame of %d bytes exceeds the %d-byte limit", body, limit)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(body))
	return nil
}

// readFrameInto reads one length-prefixed frame payload, reusing buf's
// storage when it is large enough. It returns the payload slice (valid until
// the next call with the same buf).
func readFrameInto(r io.Reader, buf []byte, limit int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf[:0], err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > uint32(limit) {
		return buf[:0], fmt.Errorf("backend: frame length %d exceeds the %d-byte limit", n, limit)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], err
	}
	return buf, nil
}

// Request operations.
const (
	opInit       = "init"
	opEnact      = "enact"
	opStep       = "step"
	opCancel     = "cancel"
	opIncomplete = "incomplete"
	opFeedback   = "feedback"
	opDerive     = "derive"
	opAppSeed    = "appseed"
	opClose      = "close"
	opPing       = "ping"
	opInject     = "inject"
)

// request is one parent→worker frame.
type request struct {
	ID uint64 `json:"id"`
	Op string `json:"op"`

	Init     *initConfig          `json:"init,omitempty"`
	Desc     *Descriptor          `json:"desc,omitempty"`
	Max      int                  `json:"max,omitempty"`
	Key      int                  `json:"key,omitempty"`
	Reason   string               `json:"reason,omitempty"`
	Report   *core.Report         `json:"report,omitempty"`
	Workload *skeleton.Workload   `json:"workload,omitempty"`
	Config   *core.StrategyConfig `json:"strategy_config,omitempty"`
	Chaos    *ChaosEvent          `json:"chaos,omitempty"`
}

// wireEvent is one ordered asynchronous output riding a response.
type wireEvent struct {
	Kind   string            `json:"k"` // "t" (trace) or "d" (done)
	Key    int               `json:"j"`
	NS     string            `json:"ns,omitempty"`
	Rec    *trace.WireRecord `json:"r,omitempty"`
	Report *core.Report      `json:"rep,omitempty"`
}

const (
	eventTrace = "t"
	eventDone  = "d"
)

// response is one worker→parent frame, answering the request with the same
// ID. Err carries operation-level failures (e.g. a derivation error) — the
// call failed, the worker is fine. Transport failures have no frame: the
// pipe breaks.
type response struct {
	ID     uint64      `json:"id"`
	Err    string      `json:"err,omitempty"`
	Events []wireEvent `json:"events,omitempty"`

	Enacted  *Enacted       `json:"enacted,omitempty"`
	Fired    int            `json:"fired,omitempty"`
	Drained  bool           `json:"drained,omitempty"`
	Seed     int64          `json:"seed,omitempty"`
	Strategy *core.Strategy `json:"strategy,omitempty"`
	Diag     string         `json:"diag,omitempty"`
	Now      int64          `json:"now,omitempty"` // engine time after the op, ns
}

// initConfig is Config in wire form: site.Config carries a batch.Policy
// interface that cannot round-trip through JSON, so sites travel as
// wireSite with the policy reduced to its registered name.
type initConfig struct {
	Shard    int           `json:"shard"`
	Seed     int64         `json:"seed"`
	Sites    []wireSite    `json:"sites,omitempty"`
	Pilot    *pilot.Config `json:"pilot,omitempty"`
	DefTestb bool          `json:"default_testbed"`
}

// wireSite mirrors site.Config field for field, with Policy reduced to its
// name ("" means the batch package's default).
type wireSite struct {
	Name           string          `json:"name"`
	Nodes          int             `json:"nodes"`
	CoresPerNode   int             `json:"cores_per_node"`
	Architecture   string          `json:"architecture,omitempty"`
	Mode           site.QueueMode  `json:"mode"`
	WaitModel      batch.WaitModel `json:"wait_model"`
	PolicyName     string          `json:"policy,omitempty"`
	BackgroundUtil float64         `json:"background_util,omitempty"`
	SubmitLatency  time.Duration   `json:"submit_latency"`
	BandwidthMBps  float64         `json:"bandwidth_mbps"`
	NetLatency     time.Duration   `json:"net_latency"`
	StorageGB      float64         `json:"storage_gb"`
	FailureProb    float64         `json:"failure_prob,omitempty"`
}

// siteToWire flattens a site configuration for the wire. Custom policy
// implementations (anything beyond the batch package's named ones) cannot
// be reconstructed in the worker and are rejected here, at spawn time,
// rather than failing obscurely in the child.
func siteToWire(c site.Config) (wireSite, error) {
	ws := wireSite{
		Name: c.Name, Nodes: c.Nodes, CoresPerNode: c.CoresPerNode,
		Architecture: c.Architecture, Mode: c.Mode, WaitModel: c.WaitModel,
		BackgroundUtil: c.BackgroundUtil, SubmitLatency: c.SubmitLatency,
		BandwidthMBps: c.BandwidthMBps, NetLatency: c.NetLatency,
		StorageGB: c.StorageGB, FailureProb: c.FailureProb,
	}
	if c.Policy != nil {
		switch c.Policy.(type) {
		case batch.FCFS, batch.EASY, batch.Conservative:
			ws.PolicyName = c.Policy.Name()
		default:
			return ws, fmt.Errorf("backend: site %q uses a custom batch policy %q, which cannot cross the worker wire (use a named policy or the local backend)", c.Name, c.Policy.Name())
		}
	}
	return ws, nil
}

// wireToSite reconstructs a site configuration in the worker.
func wireToSite(ws wireSite) (site.Config, error) {
	c := site.Config{
		Name: ws.Name, Nodes: ws.Nodes, CoresPerNode: ws.CoresPerNode,
		Architecture: ws.Architecture, Mode: ws.Mode, WaitModel: ws.WaitModel,
		BackgroundUtil: ws.BackgroundUtil, SubmitLatency: ws.SubmitLatency,
		BandwidthMBps: ws.BandwidthMBps, NetLatency: ws.NetLatency,
		StorageGB: ws.StorageGB, FailureProb: ws.FailureProb,
	}
	switch ws.PolicyName {
	case "":
	case "fcfs":
		c.Policy = batch.FCFS{}
	case "easy":
		c.Policy = batch.EASY{}
	case "conservative":
		c.Policy = batch.Conservative{}
	default:
		return c, fmt.Errorf("backend: unknown batch policy %q on the wire", ws.PolicyName)
	}
	return c, nil
}

// configToWire converts a backend Config for the init frame.
func configToWire(cfg Config) (*initConfig, error) {
	ic := &initConfig{Shard: cfg.Shard, Seed: cfg.Seed, Pilot: cfg.Pilot, DefTestb: cfg.Sites == nil}
	for _, c := range cfg.Sites {
		ws, err := siteToWire(c)
		if err != nil {
			return nil, err
		}
		ic.Sites = append(ic.Sites, ws)
	}
	return ic, nil
}

// wireToConfig reconstructs a backend Config from the init frame. An
// explicit (even empty) site list stays non-nil, so the worker's NewLocal
// makes the same nil-means-default decision the local backend would — an
// empty WithSites must not silently become the default testbed out of
// process.
func wireToConfig(ic *initConfig) (Config, error) {
	cfg := Config{Shard: ic.Shard, Seed: ic.Seed, Pilot: ic.Pilot}
	if !ic.DefTestb {
		cfg.Sites = make([]site.Config, 0, len(ic.Sites))
		for _, ws := range ic.Sites {
			c, err := wireToSite(ws)
			if err != nil {
				return cfg, err
			}
			cfg.Sites = append(cfg.Sites, c)
		}
	}
	return cfg, nil
}
