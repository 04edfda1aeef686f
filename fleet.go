package browsix

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fs"
	"repro/internal/snapshot"
)

// Fleet parallelism: many kernels serving many workloads at hardware
// speed. Every Sim is single-threaded by design — determinism comes from
// the one-event-at-a-time virtual clock — so the way to use the host's
// cores is not to thread a Sim but to run N independent Sims at once.
// Fleet does exactly that: it boots one Instance per job on a bounded
// pool of host workers (default GOMAXPROCS), shares a single page pool
// between them (its quota ledger and dedup index are the only
// cross-shard structure; see fs.PagePool), and collects per-instance
// results plus aggregate statistics.
//
// The contract is the differential test's: a job's output — stdout,
// stderr, exit code, and the instance's virtual clock — is bit-identical
// whether the fleet runs with 1 worker or GOMAXPROCS. Parallelism
// changes wall-clock time and nothing else. That holds because the
// instances share no mutable state except the page pool, and the pool's
// per-attachment quotas make each shard's caching behaviour independent
// of its neighbours.

// Job describes one fleet workload: an Instance is booted with Config
// (its page cache attached to the fleet's shared pool), staged by
// Setup, then driven either by launching Spec (Run nil) or by the Run
// callback (arbitrary workloads: interactive terminals, servers,
// multi-process builds).
type Job struct {
	// Name labels the job in results (it need not be unique).
	Name string
	// Config boots the job's Instance. PagePool is overwritten by the
	// fleet; everything else is the job's own.
	Config Config
	// Setup stages the instance (InstallBase, case-study staging, ...).
	// Optional; runs before the workload.
	Setup func(*Instance)
	// Spec is the process to run when Run is nil. Its stdout/stderr are
	// captured into the JobResult unless the Spec carries its own sinks.
	Spec Spec
	// Run, when non-nil, drives the workload instead of Spec and returns
	// what the result should carry.
	Run func(*Instance) JobOutput
}

// JobOutput is the workload-visible outcome of one job.
type JobOutput struct {
	Code   int
	Stdout []byte
	Stderr []byte
}

// JobResult is one job's outcome. Results are indexed by submission
// order, independent of which worker ran the job or when it finished.
type JobResult struct {
	Index int
	Name  string
	JobOutput
	// VirtualNs is the instance's virtual clock at completion — the
	// deterministic signature the serial-vs-parallel differential
	// compares bit-for-bit.
	VirtualNs int64
	// Err reports a launch failure, a deadlocked wait, or a recovered
	// panic from Setup/Run. The job's other fields are best-effort.
	Err error
}

// FleetStats aggregates a Run.
type FleetStats struct {
	Jobs       int
	Workers    int
	QuotaSlots int // per-instance page quota

	WallNs         int64   // host wall-clock for the whole fleet
	VirtualNs      int64   // sum of per-instance virtual clocks
	SessionsPerSec float64 // Jobs / wall seconds

	// Kernel counters summed across instances (each read after its
	// worker finished the job, so the sums are exact, not sampled).
	AsyncSyscalls int64
	SyncSyscalls  int64
	RingNotifies  int64
	// StagedSlotsLeaked is always zero: writes never lease pool slots.
	// It stays because the benchmark's fleet check reads it.
	StagedSlotsLeaked int64

	// Checkpoint/fork subsystem: images captured (the warmup), processes
	// booted as copy-on-write clones, and first-write COW faults.
	SnapshotCaptures int64
	CloneBoots       int64
	CowFaults        int64
	// SnapshotLeak is the fleet-wide COW ledger check: nil when every
	// clone returned every image page it shared by the time the last
	// job quiesced; otherwise it names the leaking image.
	SnapshotLeak error

	// Content-addressed dedup across the batch: index hits and
	// dedup-eligible stores summed over every job, the mean resident
	// page count per job at completion (sampled just before each job's
	// caches flush), and the derived sharing factor — logical page
	// fills per physical page fill, stores/(stores-hits); 1.0 means no
	// page was ever shared.
	DedupHits      int64
	DedupStores    int64
	PagesPerTenant float64
	DedupFactor    float64

	// PoolAttachments is the shared pool's quota accounts once the
	// batch is done: one per job's cache, plus the warm-up's cache and
	// its registry's image store. The pool never detaches one.
	PoolAttachments int
}

// Fleet runs batches of independent deterministic Instances across host
// cores. The zero value is ready to use: GOMAXPROCS workers, one shared
// page pool.
type Fleet struct {
	// Workers bounds host parallelism; <= 0 means GOMAXPROCS(0). Each
	// instance's page quota is fs.DefaultPoolSlots, a private cache's
	// budget, which keeps it bit-identical to a serial private-pool run.
	Workers int
	// OnBoot, when non-nil, is called on the worker goroutine right
	// after each job's Instance boots (before Setup) — the observation
	// hook live stats pollers and the counters-under-fleet tests use.
	// It may run concurrently with other jobs' hooks.
	OnBoot func(index int, in *Instance)
	// SnapshotWarmup, when non-nil, turns on fork-style spawning for the
	// whole fleet: before any job runs, one scratch instance boots
	// against the shared pool, runs each warmup command once so every
	// runtime it touches captures its post-boot image, and the resulting
	// registry — one copy of each image fleet-wide — is sealed and
	// attached to every job's Instance. Sealing before the
	// jobs run keeps the differential contract: each shard's virtual
	// clock depends only on the sealed content, never on which shard
	// booted a runtime first.
	SnapshotWarmup *SnapshotWarmup
}

// SnapshotWarmup configures Fleet snapshot pre-warming.
type SnapshotWarmup struct {
	// Setup stages the scratch instance (typically the same staging the
	// jobs use, e.g. InstallBase).
	Setup func(*Instance)
	// Cmds run once each on the scratch instance; every runtime they
	// boot captures an image (DefaultSnapshotSlots of page quota).
	Cmds []string
}

// Run executes jobs on the worker pool and returns per-job results
// (indexed by submission order) plus aggregate statistics. It blocks
// until every job finishes.
func (fl *Fleet) Run(jobs []Job) ([]JobResult, FleetStats) {
	workers := fl.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	pool := fs.NewPagePool()
	var reg *snapshot.Registry
	if fl.SnapshotWarmup != nil {
		reg = fl.prewarmSnapshots(pool)
	}

	results := make([]JobResult, len(jobs))
	var agg fleetAgg
	idx := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = fl.runJob(i, &jobs[i], pool, reg, &agg)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	wall := time.Since(start)

	stats := FleetStats{
		Jobs:       len(jobs),
		Workers:    workers,
		QuotaSlots: fs.DefaultPoolSlots,
		WallNs:     wall.Nanoseconds(),
		VirtualNs:  agg.virtualNs.Load(),

		AsyncSyscalls: agg.async.Load(),
		SyncSyscalls:  agg.sync.Load(),
		RingNotifies:  agg.ringNotifies.Load(),

		SnapshotCaptures: agg.snapCaptures.Load(),
		CloneBoots:       agg.cloneBoots.Load(),
	}
	stats.DedupHits = agg.dedupHits.Load()
	stats.DedupStores = agg.dedupStores.Load()
	if len(jobs) > 0 {
		stats.PagesPerTenant = float64(agg.cachedPages.Load()) / float64(len(jobs))
	}
	stats.DedupFactor = dedupFactor(stats.DedupStores, stats.DedupHits)
	stats.PoolAttachments = pool.Attachments()
	if reg != nil {
		stats.CowFaults = reg.Stats().CowFaults.Load()
		stats.SnapshotLeak = reg.VerifyBalanced()
	}
	if s := wall.Seconds(); s > 0 {
		stats.SessionsPerSec = float64(len(jobs)) / s
	}
	return results, stats
}

// dedupFactor derives logical-fills-per-physical-fill from store/hit
// counters: every store is a logical fill, every non-hit store filled a
// page. 1.0 when nothing was ever shared (or nothing stored).
func dedupFactor(stores, hits int64) float64 {
	if fills := stores - hits; fills > 0 {
		return float64(stores) / float64(fills)
	}
	return 1
}

// RunFleet runs jobs with a default Fleet (GOMAXPROCS workers).
func RunFleet(jobs []Job) ([]JobResult, FleetStats) {
	return (&Fleet{}).Run(jobs)
}

// fleetAgg accumulates cross-instance statistics. Atomics: workers add
// their finished job's counters concurrently.
type fleetAgg struct {
	virtualNs    atomic.Int64
	async        atomic.Int64
	sync         atomic.Int64
	ringNotifies atomic.Int64
	snapCaptures atomic.Int64
	cloneBoots   atomic.Int64
	cachedPages  atomic.Int64
	dedupHits    atomic.Int64
	dedupStores  atomic.Int64
}

// prewarmSnapshots runs the fleet's snapshot warmup on the calling
// goroutine (serially, before any worker starts) and returns the sealed
// registry every job will share. A warm-up command that fails to launch,
// deadlocks or exits non-zero panics here: its images would be missing,
// and every job would silently run cold.
func (fl *Fleet) prewarmSnapshots(pool *fs.PagePool) *snapshot.Registry {
	w := fl.SnapshotWarmup
	// Boot gives the registry its store, on the shared pool.
	reg := snapshot.NewRegistry()
	in := Boot(Config{PagePool: pool, Snapshots: reg})
	if w.Setup != nil {
		w.Setup(in)
	}
	for _, c := range w.Cmds {
		p, err := in.Start(Spec{Argv: SplitCmdline(c)})
		code := 0
		if err == nil {
			code, err = p.Wait()
		}
		if err != nil {
			panic(fmt.Sprintf("browsix: snapshot warm-up %q: %v", c, err))
		}
		if code != 0 {
			panic(fmt.Sprintf("browsix: snapshot warm-up %q exited %d; stderr: %s", c, code, p.stderr.take()))
		}
	}
	in.VFS.FlushCaches()
	reg.Seal()
	return reg
}

// ---------------------------------------------------------------------------
// Tenant-scale load harness: N RESIDENT instances on one page pool.
// ---------------------------------------------------------------------------

// TenantLoad describes a tenant-scale run: boot Tenants long-lived
// Instances against one shared page pool (sharded across the fleet's
// workers), run each tenant's workload, and keep every tenant RESIDENT —
// unlike Run's jobs, caches are not flushed per job — so the sampled
// statistics measure what an N-tenant fleet actually holds: aggregate
// pages per tenant, the dedup factor of the content-addressed tier, and
// fairness across tenants. A resident fleet's cached pages are bounded
// by Tenants x fs.DefaultPoolSlots.
type TenantLoad struct {
	// Tenants is the instance count (hundreds to thousands).
	Tenants int
	// Config boots each tenant (pool fields overwritten by the fleet).
	Config Config
	// Setup stages tenant i (mount the shared tree, install binaries).
	Setup func(i int, in *Instance)
	// Workload drives tenant i once; the tenant then idles resident.
	Workload func(i int, in *Instance)
}

// TenantStats is the resident-fleet report card.
type TenantStats struct {
	Tenants    int
	Workers    int
	QuotaSlots int
	WallNs     int64
	VirtualNs  int64 // summed over tenants

	// Sampled while every tenant is resident.
	LogicalPages  int64 // sum of per-tenant resident cached pages
	PrivatePages  int64 // resident pages not shared through the index
	SharedSlots   int64 // distinct dedup-index pages resident
	SharedRefs    int64 // outstanding references to those pages
	DedupHits     int64 // index hits across all tenants
	PhysicalPages int64 // SharedSlots + PrivatePages

	// PagesPerTenant is PHYSICAL pages divided by tenants — the
	// headline number: with perfect sharing of one hot tree it
	// approaches pages(tree)/N. DedupFactor is SharedRefs/SharedSlots
	// (1 when nothing is shared). Fairness is Jain's index over
	// per-tenant resident page counts: 1.0 = perfectly even.
	PagesPerTenant float64
	DedupFactor    float64
	Fairness       float64
	MinTenantPages int64
	MaxTenantPages int64

	// Teardown check (after every tenant's caches flush): the COW
	// ledger when a warmup registry was used.
	SnapshotLeak error
}

// RunTenants boots load.Tenants resident Instances sharded over the
// fleet's workers (tenant i runs on worker i%workers; each worker boots
// and drives its tenants serially, so per-tenant behaviour is
// deterministic), samples fleet-wide statistics while all tenants are
// resident, then tears everything down and verifies the COW ledger.
// SnapshotWarmup, if set, pre-warms and seals a registry exactly as Run
// does — snapshot heap pages land in the same content-addressed index as
// fs pages.
func (fl *Fleet) RunTenants(load TenantLoad) TenantStats {
	n := load.Tenants
	if n <= 0 {
		n = 1
	}
	workers := fl.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	pool := fs.NewPagePool()
	var reg *snapshot.Registry
	if fl.SnapshotWarmup != nil {
		reg = fl.prewarmSnapshots(pool)
	}

	instances := make([]*Instance, n)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				cfg := load.Config
				cfg.PagePool = pool
				if cfg.Snapshots == nil {
					cfg.Snapshots = reg
				}
				in := Boot(cfg)
				if load.Setup != nil {
					load.Setup(i, in)
				}
				if load.Workload != nil {
					load.Workload(i, in)
				}
				instances[i] = in
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	// Every tenant is resident and quiesced: sample the fleet.
	st := TenantStats{
		Tenants:    n,
		Workers:    workers,
		QuotaSlots: fs.DefaultPoolSlots,
		WallNs:     wall.Nanoseconds(),
	}
	perTenant := make([]int64, n)
	for i, in := range instances {
		cs := in.VFS.CacheStats()
		perTenant[i] = cs.CachedPages
		st.LogicalPages += cs.CachedPages
		st.PrivatePages += cs.CachedPages - cs.DedupPages
		st.VirtualNs += in.Now()
	}
	entries, refs, hits := pool.DedupStats()
	st.SharedSlots, st.SharedRefs, st.DedupHits = entries, refs, hits
	st.PhysicalPages = st.SharedSlots + st.PrivatePages
	st.PagesPerTenant = float64(st.PhysicalPages) / float64(n)
	if entries > 0 {
		st.DedupFactor = float64(refs) / float64(entries)
	} else {
		st.DedupFactor = 1
	}
	st.Fairness, st.MinTenantPages, st.MaxTenantPages = jainIndex(perTenant)

	// Teardown: flush every tenant (the workers are gone; the caller
	// goroutine is the sole accessor), then audit the ledgers.
	for _, in := range instances {
		in.VFS.FlushCaches()
	}
	if reg != nil {
		st.SnapshotLeak = reg.VerifyBalanced()
	}
	return st
}

// jainIndex computes Jain's fairness index (sum x)^2 / (n * sum x^2)
// over per-tenant resident page counts, plus the min and max.
func jainIndex(xs []int64) (float64, int64, int64) {
	if len(xs) == 0 {
		return 1, 0, 0
	}
	var sum, sumSq float64
	min, max := xs[0], xs[0]
	for _, x := range xs {
		f := float64(x)
		sum += f
		sumSq += f * f
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if sumSq == 0 {
		return 1, min, max
	}
	return sum * sum / (float64(len(xs)) * sumSq), min, max
}

// runJob boots, stages, and drives one job on the calling worker
// goroutine. The Instance lives entirely on this goroutine; the shared
// page pool is the only structure it touches concurrently with other
// shards.
func (fl *Fleet) runJob(i int, job *Job, pool *fs.PagePool, reg *snapshot.Registry, agg *fleetAgg) (res JobResult) {
	res.Index, res.Name = i, job.Name
	var in *Instance
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("fleet job %d (%s): panic: %v", i, job.Name, r)
		}
		if in == nil {
			return
		}
		res.VirtualNs = in.Now()
		// Sample resident-cache stats BEFORE the flush below empties
		// them: PagesPerTenant measures what the job held at completion.
		cs := in.VFS.CacheStats()
		agg.cachedPages.Add(cs.CachedPages)
		agg.dedupHits.Add(cs.DedupHits)
		agg.dedupStores.Add(cs.DedupStores)
		// Drop this shard's cached pages, returning their quota charges
		// and dedup references to the shared pool. A clone still
		// running keeps its pages on its image's COW ledger, so jobs
		// that start servers should stop them before returning.
		in.VFS.FlushCaches()
		agg.virtualNs.Add(res.VirtualNs)
		agg.async.Add(in.Kernel.AsyncSyscalls.Load())
		agg.sync.Add(in.Kernel.SyncSyscalls.Load())
		agg.ringNotifies.Add(in.Kernel.RingNotifies.Load())
		agg.snapCaptures.Add(in.Kernel.SnapshotCaptures.Load())
		agg.cloneBoots.Add(in.Kernel.CloneBoots.Load())
	}()

	cfg := job.Config
	cfg.PagePool = pool
	if cfg.Snapshots == nil {
		cfg.Snapshots = reg
	}
	in = Boot(cfg)
	if fl.OnBoot != nil {
		fl.OnBoot(i, in)
	}
	if job.Setup != nil {
		job.Setup(in)
	}
	if job.Run != nil {
		res.JobOutput = job.Run(in)
		return res
	}

	spec := job.Spec
	var outBuf, errBuf bytes.Buffer
	if spec.Stdout == nil {
		spec.Stdout = &outBuf
	}
	if spec.Stderr == nil {
		spec.Stderr = &errBuf
	}
	p, err := in.Start(spec)
	if err != nil {
		res.Err = err
		res.Code = 127
		return res
	}
	code, werr := p.Wait()
	if werr != nil {
		res.Err = werr
	}
	res.Code = code
	res.Stdout = outBuf.Bytes()
	res.Stderr = errBuf.Bytes()
	return res
}
