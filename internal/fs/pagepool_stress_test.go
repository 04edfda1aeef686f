package fs

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Concurrent tests for the shared page pool: a storm over private-page
// charges, the per-attachment quota the fleet's determinism rests on,
// and a storm over the dedup index.

const stressStamp = 128 // bytes stamped/verified per page

// TestPagePoolConcurrentStress: K goroutines — each standing in for one
// fleet shard — charge and uncharge private pages on their own
// attachments while keeping views of the pages they filled, and hand
// some dropped pages to a neighbour (a clone reading a page its parent's
// cache let go of). In-line invariants:
//
//   - a charge never takes an attachment past its quota, and fails only
//     at quota, whatever the neighbours hold;
//   - a page keeps its stamp while its shard holds it, after the shard
//     uncharges it, and in the neighbour that received it — no page is
//     ever rewritten;
//   - at quiesce every attachment's usage is zero.
//
// The race detector referees: a receiver's loads of a handed-over page
// must happen-after its filler's stores (the channel orders them).
func TestPagePoolConcurrentStress(t *testing.T) {
	const (
		K     = 8
		iters = 4000
	)
	pp := newPagePool()
	atts := make([]int, K)
	quotas := make([]int, K)
	for g := range atts {
		quotas[g] = 8 + g // uneven quotas
		atts[g] = pp.attach(quotas[g])
	}
	type handed struct {
		page  []byte
		stamp byte
	}
	inbox := make([]chan handed, K)
	for g := range inbox {
		inbox[g] = make(chan handed, 16)
	}

	var wg sync.WaitGroup
	for g := 0; g < K; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*7919 + 1)) // fixed per-shard seed
			att := atts[g]
			stamp := byte(g + 1)
			var held, dropped [][]byte

			check := func(page []byte, want byte, what string) {
				for i := 0; i < stressStamp; i++ {
					if page[i] != want {
						t.Errorf("shard %d: page byte %d = %d, want %d (%s)", g, i, page[i], want, what)
						return
					}
				}
			}
			dropAt := func(i int) {
				page := held[i]
				check(page, stamp, "held at uncharge")
				pp.uncharge(att)
				select {
				case inbox[(g+1)%K] <- handed{page, stamp}:
				default:
				}
				if len(dropped) < 64 {
					dropped = append(dropped, page)
				}
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
			}

			for iter := 0; iter < iters; iter++ {
				switch op := rng.Intn(100); {
				case op < 45: // store: charge, then fill a fresh page
					if !pp.charge(att) {
						if len(held) != quotas[g] {
							t.Errorf("shard %d: charge failed holding %d of quota %d", g, len(held), quotas[g])
						}
						if len(held) > 0 {
							dropAt(rng.Intn(len(held)))
						}
						continue
					}
					if len(held) >= quotas[g] {
						t.Errorf("shard %d: charge succeeded holding %d of quota %d", g, len(held), quotas[g])
					}
					page := make([]byte, stressStamp)
					for i := range page {
						page[i] = stamp
					}
					held = append(held, page)
				case op < 65 && len(held) > 0: // re-read a held page
					check(held[rng.Intn(len(held))], stamp, "held")
				case op < 75 && len(dropped) > 0: // re-read a dropped page
					check(dropped[rng.Intn(len(dropped))], stamp, "after uncharge")
				case op < 85: // read a page a neighbour handed over
					select {
					case h := <-inbox[g]:
						check(h.page, h.stamp, "handed over")
					default:
					}
				default: // evict/invalidate
					if len(held) > 0 {
						dropAt(rng.Intn(len(held)))
					}
				}
				if iter%256 == 0 {
					runtime.Gosched() // shuffle interleavings
				}
			}
			for len(held) > 0 {
				dropAt(len(held) - 1)
			}
		}(g)
	}
	wg.Wait()

	for g, att := range atts {
		if n := pp.usedBy(att); n != 0 {
			t.Errorf("shard %d still charged %d pages at quiesce", g, n)
		}
	}
}

// TestPagePoolQuotaIndependence pins the determinism property the fleet
// rests on: one attachment's charge success depends only on its own
// quota, never on how many pages its neighbours hold.
func TestPagePoolQuotaIndependence(t *testing.T) {
	pp := newPagePool()
	a := pp.attach(4)
	b := pp.attach(4)

	// Shard b hoards its whole quota.
	for i := 0; i < 4; i++ {
		if !pp.charge(b) {
			t.Fatalf("b charge %d failed under quota", i)
		}
	}
	if pp.charge(b) {
		t.Fatal("b charge succeeded past its quota")
	}
	// Shard a still gets its full quota regardless.
	for i := 0; i < 4; i++ {
		if !pp.charge(a) {
			t.Fatalf("a charge %d failed while under quota (neighbour interference)", i)
		}
	}
	if pp.charge(a) {
		t.Fatal("a charge succeeded past its quota")
	}
	// A shared reference counts against quota like a private page.
	pp.uncharge(b)
	h := sha256.Sum256([]byte("shared"))
	if pp.dedupPublish(b, h, []byte("shared")) == nil {
		t.Fatal("b publish failed with one page of headroom")
	}
	if e, st := pp.dedupLookup(b, h); e != nil || st != dedupNoQuota {
		t.Fatalf("b lookup past its quota: st=%d, want dedupNoQuota", st)
	}
	if e, st := pp.dedupLookup(a, h); e != nil || st != dedupNoQuota {
		t.Fatalf("a lookup past its quota: st=%d, want dedupNoQuota", st)
	}
	pp.uncharge(a)
	if e, st := pp.dedupLookup(a, h); e == nil || st != dedupHit {
		t.Fatalf("a lookup with headroom: st=%d, want dedupHit", st)
	}
}

// TestPagePoolDedupStress storms the content-addressed tier: K shards
// share a small set of content patterns, so lookups constantly hit
// entries other shards published, publishes race on the same hash, and
// derefs interleave with other shards' references. In-line invariants:
//
//   - a lookup hit or publish always returns a page carrying exactly the
//     pattern's bytes (the index never aliases two contents);
//   - a page keeps its bytes while a shard holds it, and after the shard
//     drops its reference — a page is never rewritten;
//   - at quiesce the index is empty and every shared charge is returned.
//
// The race detector referees: publish/lookup hand pages between shards
// under the pool mutex, so a filler's stores must happen-before every
// reader's loads.
func TestPagePoolDedupStress(t *testing.T) {
	const (
		K        = 8
		iters    = 3000
		patterns = 24
	)
	pp := newPagePool()

	// Hash per pattern; pattern content = stressStamp bytes of its tag.
	var hashes [patterns][32]byte
	for p := 0; p < patterns; p++ {
		body := make([]byte, stressStamp)
		for i := range body {
			body[i] = byte(p + 1)
		}
		hashes[p] = sha256.Sum256(body)
	}

	// Uneven quotas; shared references charge quota logically, so small
	// shards exercise dedupNoQuota while big ones keep entries alive.
	atts := make([]int, K)
	for g := range atts {
		atts[g] = pp.attach(12 + 2*g)
	}

	type dedupHeld struct {
		e   *dedupEntry
		pat int
	}
	var wg sync.WaitGroup
	for g := 0; g < K; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*104729 + 3))
			att := atts[g]
			var held []dedupHeld
			var dropped []dedupHeld // pages this shard let go of

			verify := func(page []byte, pat int, what string) {
				for i := 0; i < stressStamp; i++ {
					if page[i] != byte(pat+1) {
						t.Errorf("shard %d: page byte %d = %d, want pattern %d (%s)",
							g, i, page[i], pat+1, what)
						return
					}
				}
			}
			dropAt := func(i int) {
				h := held[i]
				verify(h.e.page, h.pat, "held at deref")
				pp.dedupDeref(att, h.e)
				if len(dropped) < 64 {
					dropped = append(dropped, h)
				}
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
			}

			for iter := 0; iter < iters; iter++ {
				switch op := rng.Intn(100); {
				case op < 50: // fault a pattern: lookup, else fill+publish
					pat := rng.Intn(patterns)
					e, st := pp.dedupLookup(att, hashes[pat])
					if st == dedupMiss {
						page := make([]byte, stressStamp)
						for i := range page {
							page[i] = byte(pat + 1)
						}
						e = pp.dedupPublish(att, hashes[pat], page)
					}
					if e == nil { // at quota
						if len(held) > 0 {
							dropAt(rng.Intn(len(held)))
						}
						continue
					}
					verify(e.page, pat, "lookup or publish") // loser adopts the winner's page
					held = append(held, dedupHeld{e: e, pat: pat})
				case op < 70 && len(held) > 0: // re-read a held page
					h := held[rng.Intn(len(held))]
					verify(h.e.page, h.pat, "held")
				case op < 80 && len(dropped) > 0: // re-read a dropped page
					h := dropped[rng.Intn(len(dropped))]
					verify(h.e.page, h.pat, "after deref")
				default: // drop our reference
					if len(held) > 0 {
						dropAt(rng.Intn(len(held)))
					}
				}
				if iter%256 == 0 {
					runtime.Gosched()
				}
			}
			for len(held) > 0 {
				dropAt(len(held) - 1)
			}
		}(g)
	}
	wg.Wait()

	// Quiesce: the index is empty and every charge returned.
	if e, r, _ := pp.dedupStats(); e != 0 || r != 0 || len(pp.dedupIdx) != 0 {
		t.Errorf("dedup index at quiesce: entries=%d refs=%d map=%d, want 0/0/0", e, r, len(pp.dedupIdx))
	}
	for g, att := range atts {
		if n := pp.usedBy(att); n != 0 {
			t.Errorf("shard %d still charged %d private pages at quiesce", g, n)
		}
		if n := pp.sharedBy(att); n != 0 {
			t.Errorf("shard %d still charged %d shared refs at quiesce", g, n)
		}
	}
}
