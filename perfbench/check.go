package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"aimes"
)

// checkReport verifies one job's report against its workload: every task
// completed, units are conserved, and TTC bounds each of its components.
func checkReport(r *aimes.Report, tasks int) error {
	if r == nil {
		return fmt.Errorf("no report")
	}
	if r.UnitsDone != tasks {
		return fmt.Errorf("UnitsDone %d != %d tasks", r.UnitsDone, tasks)
	}
	if u := r.UnitsDone + r.UnitsFailed + r.UnitsCanceled; u != tasks {
		return fmt.Errorf("done+failed+canceled = %d != %d units", u, tasks)
	}
	if r.TTC < r.Tw || r.TTC < r.Tx || r.TTC < r.Ts {
		return fmt.Errorf("TTC %v below a component (Tw %v, Tx %v, Ts %v)", r.TTC, r.Tw, r.Tx, r.Ts)
	}
	return nil
}

// digest hashes reports in a fixed order: per-shard determinism makes the
// digest of each client's first jobs a function of the seed alone, equal on
// every backend.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(client, i int, r *aimes.Report) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	fmt.Fprintf(d.h, "%d/%d:", client, i)
	d.h.Write(b)
	return nil
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
