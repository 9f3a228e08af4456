package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/kvs"
	"sliceaware/internal/wal"
	"sliceaware/internal/zipf"
)

// In-process kernels under the serving path: the store operation and the
// key generator on the key stream the clients use, and the journal with the
// daemon's record shape and group-commit size.

// kvsKernels times kvs.Store.ServeOne on one shard's store, built the way
// slicekvsd builds it, and the Zipf generator that feeds it.
func kvsKernels(h *harness, out map[string]float64) error {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		return err
	}
	perShard := (h.size.keys + serveShards - 1) / serveShards
	store, err := kvs.New(m, kvs.Config{Keys: perShard, ServingCore: 0, SliceAware: true})
	if err != nil {
		return err
	}
	z, err := zipf.NewZipf(rand.New(rand.NewSource(clientSeed(h.seed, 0))), h.size.keys, zipfTheta)
	if err != nil {
		return err
	}
	n, passes := h.size.kernelOps, h.size.kernelPasses
	ranks := make([]uint64, n)
	var sink uint64
	out["zipf.next.ns_per_op"] = timePasses(passes, n, func() {
		for i := range ranks {
			ranks[i] = z.Next()
		}
	})
	for i := range ranks {
		ranks[i] /= serveShards // the shard-local rank, as the daemon maps it
	}
	var firstErr error
	serve := func(isGet bool, cycles *uint64) func() {
		return func() {
			*cycles = 0
			for _, k := range ranks {
				c, err := store.ServeOne(k, isGet)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				*cycles += c
			}
		}
	}
	var getCycles, setCycles uint64
	serve(true, &sink)() // warm the simulated caches, as the daemon's -warmup does
	out["kvs.serve_one.get.ns_per_op"] = timePasses(passes, n, serve(true, &getCycles))
	out["kvs.serve_one.set.ns_per_op"] = timePasses(passes, n, serve(false, &setCycles))
	out["kvs.get.cycles_per_op"] = float64(getCycles) / float64(n)
	out["kvs.set.cycles_per_op"] = float64(setCycles) / float64(n)
	kernelSink += sink
	return firstErr
}

// walKernels times the journal on a temp directory inside the checkout:
// 32-byte records appended and group-committed every 64, as slicekvsd
// does at its defaults, then a snapshot and a recovery. The fsync lands in
// the sandbox's page cache, not on a device.
func walKernels(h *harness, out map[string]float64) error {
	dir, err := os.MkdirTemp(h.tmp, "walkernel-")
	if err != nil {
		return err
	}
	const flushEvery = 64
	keys := uint64(h.size.snapshotKeys)
	// journal writes n records to the journal of shard, flushing every
	// flushEvery, and returns the time spent appending and each flush.
	journal := func(shard, n int) (appendNs time.Duration, flushUs []float64, err error) {
		j, err := wal.OpenJournal(dir, shard, 0)
		if err != nil {
			return 0, nil, err
		}
		versions := make([]uint64, keys)
		// One clock read per group of appends, not per append: an append is
		// shorter than reading the clock twice.
		for seq := 1; seq <= n; {
			t0 := time.Now()
			for ; seq <= n && j.Pending() < flushEvery; seq++ {
				k := uint64(seq*31) % keys
				versions[k]++
				if err := j.Append(wal.Record{Seq: uint64(seq), Key: k, Ver: versions[k], Op: wal.OpSet}); err != nil {
					return 0, nil, err
				}
			}
			t1 := time.Now()
			if err := j.Flush(); err != nil {
				return 0, nil, err
			}
			t2 := time.Now()
			appendNs += t1.Sub(t0)
			flushUs = append(flushUs, float64(t2.Sub(t1).Nanoseconds())/1e3)
			h.spans.add(0, "wal.append", "serve-write-wal", 1, t0, t1)
			h.spans.add(0, "wal.flush", "serve-write-wal", 1, t1, t2)
		}
		return appendNs, flushUs, j.Close()
	}

	// Shard 1's journal is long enough for the flush tail to have support.
	appendNs, flushUs, err := journal(1, h.size.flushRecs)
	if err != nil {
		return err
	}
	sort.Float64s(flushUs)
	out["wal.append.ns_per_rec"] = float64(appendNs.Nanoseconds()) / float64(h.size.flushRecs)
	out["wal.flush.p50_us"] = percentile(flushUs, 50)
	out["wal.flush.p99_us"] = percentile(flushUs, tailPercentile(len(flushUs)))

	// Shard 0 is what recovery reads: a snapshot current through seqno 0
	// and a journal of recoverRecs records, every one a delta on top of it.
	n := h.size.recoverRecs
	if _, _, err := journal(0, n); err != nil {
		return err
	}
	snap := &wal.Snapshot{Shard: 0, LastSeq: 0, Versions: make([]uint64, keys)}
	var snapMs []float64
	for i := 0; i < h.size.kernelPasses; i++ {
		t0 := time.Now()
		if err := wal.WriteSnapshot(dir, snap); err != nil {
			return err
		}
		snapMs = append(snapMs, time.Since(t0).Seconds()*1e3)
	}
	out["wal.snapshot.ms"] = median(snapMs)
	var recMs []float64
	for i := 0; i < h.size.kernelPasses; i++ {
		t0 := time.Now()
		st, rep, err := wal.Recover(dir, 0, keys, nil)
		if err != nil {
			return err
		}
		recMs = append(recMs, time.Since(t0).Seconds()*1e3)
		if rep.Replayed != n || st.LastSeq != uint64(n) {
			return fmt.Errorf("wal kernel: recovery replayed %d records through seqno %d, %d were written", rep.Replayed, st.LastSeq, n)
		}
	}
	out["wal.recover.ms"] = median(recMs)
	return nil
}
