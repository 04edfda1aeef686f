package main

import (
	"strings"

	browsix "repro"
)

// counters is a named snapshot of an Instance's read-only counters.
type counters map[string]int64

// syscallNames are the syscalls reported as core.syscalls.<name>_per_op:
// the most frequent names across the three workloads, fixed so every
// run reports the same metrics.
var syscallNames = []string{
	"read", "write", "readg", "writeg", "wgalloc", "unlease", "readv",
	"writev", "open", "close", "stat", "lstat", "access", "getdents",
	"spawn", "fork", "exec", "wait4", "pipe2", "exit", "poll", "accept",
}

// httpSyscalls are the server-side calls httpx.requests_per_syscall
// divides by.
var httpSyscalls = []string{"poll", "accept", "read", "write", "close"}

// readCounters snapshots in's counters. Call it only between drives of
// the simulation (the syscall map is owned by the instance's thread).
func readCounters(in *browsix.Instance) counters {
	k := in.Kernel
	cs := in.VFS.CacheStats()
	c := counters{
		"sched.events":             int64(in.Sim.Steps()),
		"core.async_syscalls":      k.AsyncSyscalls.Load(),
		"core.sync_syscalls":       k.SyncSyscalls.Load(),
		"core.ring_syscalls":       k.RingSyscalls.Load(),
		"core.ring_batched_calls":  k.RingBatchedCalls.Load(),
		"core.ring_notifies":       k.RingNotifies.Load(),
		"core.fs_batched_calls":    k.FSBatchedCalls.Load(),
		"core.read_copied_bytes":   k.ReadCopiedBytes.Load(),
		"core.write_copied_bytes":  k.WriteCopiedBytes.Load(),
		"core.granted_bytes":       k.GrantedBytes.Load(),
		"core.write_granted_bytes": k.WriteGrantedBytes.Load(),
		"core.lease_grants":        k.LeaseGrants.Load(),
		"core.lease_returns":       k.LeaseReturns.Load(),
		"fs.page_hits":             cs.PageHits,
		"fs.page_misses":           cs.PageMisses,
		"fs.readahead_ops":         cs.ReadaheadOps,
		"fs.dentry_hits":           cs.DentryHits,
		"fs.dentry_misses":         cs.DentryMisses,
		"fs.walk_hits":             cs.WalkHits,
		"fs.buffered_writes":       cs.BufferedWrites,
		"fs.flush_writes":          cs.FlushWrites,
		"fs.dedup_hits":            cs.DedupHits,
		"fs.dedup_stores":          cs.DedupStores,
		"fs.cached_pages":          cs.CachedPages,
		"snapshot.clone_boots":     k.CloneBoots.Load(),
	}
	for name, n := range k.SyscallCount {
		c["core.syscalls."+name] = n
	}
	return c
}

// sub returns c - base for every counter in c.
func (c counters) sub(base counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

// add accumulates d into c.
func (c counters) add(d counters) {
	for k, v := range d {
		c[k] += v
	}
}

// layerInputs is what a workload measured over its deterministic
// window, for the per-layer report.
type layerInputs struct {
	ops    int      // ops in the window
	delta  counters // counter deltas over the window
	cached int64    // fs.cached_pages at the window's end (mean per instance)

	// Swarm totals over the window (meme-swarm).
	requests, retries int
	respBytes         int64
	// HTTPFS totals since the world booted (latex-edit).
	httpFetches, httpBytes int64
	// COW faults per session over a whole fleet run: the registry
	// counts them fleet-wide, so they cannot be cut to the window.
	cowFaultsPerOp float64
}

// emitLayers records every per-layer metric that is not a span or a
// profile share.
func (b *bench) emitLayers(li layerInputs) {
	d, ops := li.delta, float64(li.ops)
	per := func(name string) float64 { return ratio(float64(d[name]), ops) }
	b.layer("sched.events_per_op", "count", per("sched.events"))
	b.layer("sched.host_ns_per_event", "ns", b.hostNsPerEvent)

	for _, n := range []string{"async_syscalls", "sync_syscalls", "ring_syscalls",
		"ring_batched_calls", "ring_notifies", "fs_batched_calls"} {
		b.layer("core."+n+"_per_op", "count", per("core."+n))
	}
	for _, n := range []string{"read_copied_bytes", "write_copied_bytes",
		"granted_bytes", "write_granted_bytes"} {
		b.layer("core."+n+"_per_op", "B", per("core."+n))
	}
	for _, n := range syscallNames {
		b.layer("core.syscalls."+n+"_per_op", "count", per("core.syscalls."+n))
	}

	var httpCalls int64
	for _, n := range httpSyscalls {
		httpCalls += d["core.syscalls."+n]
	}
	b.layer("httpx.requests_per_syscall", "ratio", ratio(float64(li.requests), float64(httpCalls)))
	b.layer("netsim.retries_per_request", "ratio", ratio(float64(li.retries), float64(li.requests)))
	b.layer("netsim.response_bytes_per_request", "B", ratio(float64(li.respBytes), float64(li.requests)))

	hitRatio := func(hits, misses string) float64 {
		return ratio(float64(d[hits]), float64(d[hits]+d[misses]))
	}
	b.layer("fs.page_hit_ratio", "ratio", hitRatio("fs.page_hits", "fs.page_misses"))
	b.layer("fs.page_misses_per_op", "count", per("fs.page_misses"))
	b.layer("fs.readahead_ops_per_op", "count", per("fs.readahead_ops"))
	b.layer("fs.dentry_hit_ratio", "ratio", hitRatio("fs.dentry_hits", "fs.dentry_misses"))
	b.layer("fs.walk_hits_per_op", "count", per("fs.walk_hits"))
	b.layer("fs.buffered_writes_per_op", "count", per("fs.buffered_writes"))
	b.layer("fs.flush_writes_per_op", "count", per("fs.flush_writes"))
	b.layer("fs.dedup_hit_ratio", "ratio", ratio(float64(d["fs.dedup_hits"]), float64(d["fs.dedup_stores"])))
	b.layer("fs.cached_pages", "count", float64(li.cached))
	b.layer("fs.http_fetches", "count", float64(li.httpFetches))
	b.layer("fs.http_bytes", "B", float64(li.httpBytes))

	b.layer("snapshot.clone_boots_per_op", "count", per("snapshot.clone_boots"))
	b.layer("snapshot.cow_faults_per_op", "count", li.cowFaultsPerOp)
}

// ledgerOK audits the lease ledger of one quiesced instance.
func (b *bench) ledgerOK(in *browsix.Instance, who string) {
	g, r := in.Kernel.LeaseGrants.Load(), in.Kernel.LeaseReturns.Load()
	if g != r {
		b.failf("%s: lease ledger unbalanced: %d grants, %d returns", who, g, r)
	}
	if n := in.VFS.WriteStagedSlots(); n != 0 {
		b.failf("%s: %d staged write slots leaked", who, n)
	}
}

// countLines counts the lines of out that contain substr.
func countLines(out, substr string) int {
	n := 0
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, substr) {
			n++
		}
	}
	return n
}
