// Package pool implements the task pool of the high-level self-scheduling
// scheme (Section III-A of the paper): one parallel doubly-linked list per
// innermost parallel loop, an m-bit control word SW indicating nonempty
// lists, per-list spin locks, and instance control blocks (ICBs).
//
// Algorithms 1 (DELETE) and 2 (APPEND) are implemented faithfully here;
// Algorithm 4 (SEARCH) is split between layers: the retrying sweep loop
// belongs to the core execution kernel, and this package exposes only the
// per-step primitives it drives (First — leading-one detection, Next —
// continue the scan, TryAdopt — lock/retest/walk/adopt). Two documented
// engineering choices:
//
//   - The sweep continues its leading-one scan at the next set bit after a
//     locked or saturated list instead of restarting at bit 1, avoiding a
//     pathological spin when low-numbered lists hold only saturated ICBs.
//     This preserves the paper's intent ("processors can go to the next
//     nonempty linked list when the i-th linked list is locked").
//   - Retired ICBs are recycled within a run (the executor's worker
//     freelists, each a Retired stack): the paper's pcount release
//     protocol makes explicit reuse safe, and Reinit starts a fresh
//     lifetime of the block (and of its synchronization variables) for
//     the next instance.
//
// The pool can also be configured with a single shared list for all loops,
// which is the baseline for the "multiple parallel lists avoid a serial
// bottleneck" ablation (experiment E5).
//
// Every organization also keeps one fan-out list, searched after every
// leaf list: a fan-out block (MarkFanOut) is a structural parallel loop's
// pending activations, which processors claim in chunks as they claim
// iterations (DESIGN §2). Searching it last makes processors drain the
// live instances before they activate more.
package pool

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/loopir"
	"repro/internal/machine"
)

// SchedState is per-instance state attached by a low-level scheduling
// scheme at activation (e.g. trapezoid or factoring chunk state).
// SchemeName identifies the owning scheme, so a mismatched attachment
// fails loudly at the type assertion instead of corrupting a reused
// block.
type SchedState interface {
	SchemeName() string
}

// SyncState is per-instance state attached by the two-level executor at
// activation (e.g. Doacross dependence flags). SyncName identifies the
// synchronization discipline.
type SyncState interface {
	SyncName() string
}

// ICB is an instance control block: one entry of a parallel linked list,
// representing an active instance of an innermost parallel loop.
//
// The block is three 64-byte cache lines, grouped by who writes them, and
// 192 bytes is an allocator size class whose blocks start on a line
// boundary (TestICBLayout pins both):
//
//	line 0  Index, ICount — the claim's fetch-and-add is the line's
//	        per-chunk traffic; a worker posts to ICount once per hold and,
//	        near the instance's tail, before each claim (post→claim, two
//	        back-to-back fetch-and-adds), so they share the line that
//	        travels
//	line 1  PCount, the list links and membership, Sync — written per
//	        adoption and per list operation, not per iteration
//	line 2  Loop, Bound, IVec, Sched, and the storage of a one-deep
//	        IVec — written at activation only
type ICB struct {
	// Index is the shared iteration index: the next iteration (1-based) to
	// be scheduled. Low-level self-scheduling fetches from it.
	Index machine.SyncVar
	// ICount counts completed iterations as their processors post them —
	// it lags executed work by each holder's unposted count; the processor
	// whose post brings it to Bound activates the successors.
	ICount machine.SyncVar
	_      [16]byte

	// PCount counts processors currently holding a pointer to this ICB;
	// the instance completer waits for PCount to drain to 1 before
	// releasing the block (Algorithm 3).
	PCount machine.SyncVar
	// right and left link the list; they are guarded by the list's lock.
	right, left *ICB
	// inList tracks membership for double-append/delete detection
	// (guarded by the list lock).
	inList bool
	// fan marks a fan-out block: its "iterations" are the activations of
	// a structural parallel loop, and it lives on the fan-out list.
	fan bool
	// home is the owning list index in a Distributed pool.
	home int32
	// Sync is executor-private state, attached by the two-level executor
	// at activation.
	Sync SyncState

	// Loop is the innermost parallel loop number (1..m).
	Loop int
	// Bound is the loop bound of this instance, evaluated at activation.
	Bound int64
	// IVec is the index vector of the enclosing loops.
	IVec loopir.IVec
	// Sched is scheme-private state, attached by the low-level scheduling
	// scheme at activation.
	Sched SchedState
	// ivec1 backs a one-deep IVec (setIVec): the vector then lives on
	// the line it is published with, not in an 8-byte allocation packed
	// beside other blocks' vectors, and costs no allocation of its own.
	ivec1 [1]int64
}

// The ICB's variable names, interned once at start-up: a fan-out creates
// blocks by the thousand, and labelling one is then a plain store.
var (
	labelIndex  = machine.Intern("index")
	labelICount = machine.Intern("icount")
	labelPCount = machine.Intern("pcount")
)

// NewICB returns an ICB for an instance of loop num with the given bound
// and enclosing index vector, initialized per Algorithm 6:
// index = 1, icount = 0, pcount = 0.
func NewICB(num int, bound int64, ivec loopir.IVec) *ICB {
	b := &ICB{Loop: num, Bound: bound}
	b.setIVec(ivec)
	b.Index.Init(labelIndex, 1)
	b.ICount.Init(labelICount, 0)
	b.PCount.Init(labelPCount, 0)
	// The claim words are the ones a combining network may serve (the
	// engine's policy decides whether it does); pcount never is, because
	// the release protocol's {pcount = 1; Dec} test must observe every
	// holder individually. The marks survive Reinit.
	b.Index.MarkCombinable()
	b.ICount.MarkCombinable()
	return b
}

// Reinit recycles a retired ICB for a new instance of loop num. The
// caller must hold exclusive ownership of the block: it has been deleted
// from every list and its pcount release protocol has drained (the
// executor's freelists pull only from that state). The synchronization
// variables start a fresh lifetime (machine.SyncVar.Reset), so engines
// that key per-variable state by identity see a brand-new block, and the
// index vector is copied without allocating when it is at most one deep
// or fits the block's previous vector.
//
// The typed Sched/Sync attachments are deliberately retained: activation
// passes them back to lowsched (Policy.Init, ReuseDoacross), which resets
// matching-shape state in place instead of reallocating. Every activation
// path must therefore go through the scheme's Init (and must clear Sync
// when the new instance carries no dependence) — recycled state never
// leaks because the reset is part of the activation protocol, not of
// retirement.
func (b *ICB) Reinit(num int, bound int64, ivec loopir.IVec) {
	if b.inList {
		panic(fmt.Sprintf("pool: reinit of listed %v", b))
	}
	b.Index.Reset(1)
	b.ICount.Reset(0)
	b.PCount.Reset(0)
	b.Retarget(num, bound, ivec)
	b.left, b.right = nil, nil
	b.home = 0
	b.fan = false
}

// Retarget points the block at another instance — loop num, bound, ivec —
// and leaves its synchronization words as they are: for a block no other
// processor sees, such as the scratch block an inline instance runs in,
// whose words nothing claims, posts or holds.
func (b *ICB) Retarget(num int, bound int64, ivec loopir.IVec) {
	b.Loop = num
	b.Bound = bound
	b.setIVec(ivec)
}

// MarkFanOut makes the block a fan-out block: Loop names the leaf whose
// chain the fan-out activates, Bound is the structural loop's trip count,
// IVec the indexes enclosing it, and Index the next activation to claim.
// The pool keeps it on the fan-out list, which every SEARCH sweep visits
// after the leaf lists, and no adoption filter sees it. Mark before
// Append; Reinit clears the mark.
func (b *ICB) MarkFanOut() { b.fan = true }

// FanOut reports whether the block is a fan-out block.
func (b *ICB) FanOut() bool { return b.fan }

// setIVec copies ivec into the block: into the block's previous vector
// when it fits, else into the block's own one-word storage when ivec is
// one deep, else into a fresh array. An empty ivec on a fresh block
// leaves IVec nil.
func (b *ICB) setIVec(ivec loopir.IVec) {
	iv := b.IVec[:0]
	if len(ivec) > cap(iv) && len(ivec) <= len(b.ivec1) {
		iv = b.ivec1[:0]
	}
	b.IVec = append(iv, ivec...)
}

// Retired is a LIFO of retired blocks, chained through their list links:
// a block out of every list whose release protocol has drained uses
// neither link, so holding it costs no allocation. Pushing a block hands
// its ownership to the stack and popping hands it to the caller; the
// stack itself is not synchronized.
type Retired struct {
	top *ICB
	n   int
}

// Push adds a retired block.
func (r *Retired) Push(b *ICB) {
	if b.inList {
		panic(fmt.Sprintf("pool: retire of listed %v", b))
	}
	b.right = r.top
	r.top = b
	r.n++
}

// Pop removes and returns the most recently pushed block, or nil.
func (r *Retired) Pop() *ICB {
	b := r.top
	if b != nil {
		r.top, b.right = b.right, nil
		r.n--
	}
	return b
}

// Len returns the number of blocks on the stack.
func (r *Retired) Len() int { return r.n }

func (b *ICB) String() string {
	if b.fan {
		return fmt.Sprintf("fan-out{loop %d, ivec %v, bound %d, next %d, pcount %d}",
			b.Loop, b.IVec, b.Bound, b.Index.Peek(), b.PCount.Peek())
	}
	return fmt.Sprintf("ICB{loop %d, ivec %v, bound %d, index %d, icount %d, pcount %d}",
		b.Loop, b.IVec, b.Bound, b.Index.Peek(), b.ICount.Peek(), b.PCount.Peek())
}

// Right returns the next ICB in the list (testing/iteration under lock).
func (b *ICB) Right() *ICB { return b.right }

// plist is one list header, padded to a cache line, so an Append on one
// list, which writes its tail and count, does not invalidate the head a
// Delete or TryAdopt on the neighbouring list reads and writes. The
// header's words take its first 32 bytes: the lists slice starts on a
// line boundary, or 8 bytes past one when the allocator puts its header
// in front (an object with pointers above 512 bytes), and either way no
// line holds the words of two lists (TestListLayout).
type plist struct {
	lock       *machine.SpinLock
	head, tail *ICB
	// n mirrors the list length, maintained host-side under the list
	// lock but read atomically, so watchdog diagnostics can report
	// occupancy without walking (or locking) a possibly-wedged list.
	n atomic.Int64
	_ [32]byte
}

// Pool is the task pool: nlists parallel linked lists addressed through
// the control word SW, and the fan-out list, list nlists+1, advertised in
// the bit after them — so leading-one detection reaches it last. It is
// charged against the last shard word.
//
// The control word may be split across several shard words (NewSharded):
// list i is advertised in shard word (i-1)/shardSize, the leading-one
// sweep examines shard words in order, and every SW operation is charged
// against the touched shard's synchronization variable. With one shard
// (the default, and the paper's configuration) the access sequence is
// exactly the classic single-word one; with more, searchers, appenders
// and deleters of different shards no longer contend on the same memory
// module, so sweep and locked-retest contention scales with the shard
// count instead of the processor count.
type Pool struct {
	m      int // innermost parallel loop count
	nlists int
	sw     *bitset.Atomic
	// shardSize is the number of list bits per SW shard word.
	shardSize int
	// swVars are the synchronization variables standing in for the SW
	// shard words in the machine's contention model: every SW access is
	// charged against the touched shard's variable. One entry per shard.
	swVars []*machine.SyncVar
	lists  []plist
}

// New returns a pool with one list per innermost parallel loop (the
// paper's configuration).
func New(m int) *Pool { return newPool(m, m, 1) }

// NewSingleList returns a pool in which all m loops share a single list —
// the serial-bottleneck baseline.
func NewSingleList(m int) *Pool { return newPool(m, 1, 1) }

// NewSharded returns a per-loop pool whose SW control word is split into
// shards words. Shard counts larger than the list count are clamped.
func NewSharded(m, shards int) *Pool { return newPool(m, m, shards) }

func newPool(m, nlists, shards int) *Pool {
	if m < 1 || nlists < 1 {
		panic(fmt.Sprintf("pool: invalid sizes m=%d nlists=%d", m, nlists))
	}
	if shards < 1 {
		panic(fmt.Sprintf("pool: invalid SW shard count %d", shards))
	}
	if shards > nlists {
		shards = nlists
	}
	p := &Pool{
		m:         m,
		nlists:    nlists,
		sw:        bitset.New(nlists + 1),
		shardSize: (nlists + shards - 1) / shards,
		swVars:    make([]*machine.SyncVar, shards),
		lists:     make([]plist, nlists+2), // 1-based, the fan-out list last
	}
	for s := range p.swVars {
		name := "SW"
		if shards > 1 {
			name = fmt.Sprintf("SW(%d)", s)
		}
		p.swVars[s] = machine.NewSyncVar(name, 0)
	}
	for i := 1; i <= nlists; i++ {
		p.lists[i].lock = machine.NewSpinLock(fmt.Sprintf("L(%d)", i))
	}
	p.lists[nlists+1].lock = machine.NewSpinLock("L(fan)")
	return p
}

// NumLists returns the number of parallel linked lists of loop instances
// (the fan-out list is not counted).
func (p *Pool) NumLists() int { return p.nlists }

// SWShards returns the number of SW shard words.
func (p *Pool) SWShards() int { return len(p.swVars) }

// swVarOf returns the synchronization variable of the shard word
// advertising list i.
func (p *Pool) swVarOf(i int) *machine.SyncVar {
	return p.swVars[p.shardOf(i)]
}

// shardOf returns the shard word advertising list i: the fan-out list is
// the last shard's.
func (p *Pool) shardOf(i int) int {
	if i > p.nlists {
		return len(p.swVars) - 1
	}
	return (i - 1) / p.shardSize
}

// listOf maps a block to its list number.
func (p *Pool) listOf(icb *ICB) int {
	if icb.fan {
		return p.nlists + 1
	}
	return p.loopList(icb.Loop)
}

// loopList maps a loop number to its list number.
func (p *Pool) loopList(loop int) int {
	if loop < 1 || loop > p.m {
		panic(fmt.Sprintf("pool: loop %d out of range [1,%d]", loop, p.m))
	}
	if p.nlists == 1 {
		return 1
	}
	return loop
}

// Append adds an ICB to its loop's list (Algorithm 2: lock, reset SW(i),
// splice at tail, set SW(i), unlock).
func (p *Pool) Append(pr machine.Proc, icb *ICB) {
	i := p.listOf(icb)
	l := &p.lists[i]
	l.lock.Lock(pr)
	l.link(icb)
	p.sw.Clear(i)
	pr.Access(p.swVarOf(i))
	p.sw.Set(i)
	pr.Access(p.swVarOf(i))
	l.lock.Unlock(pr)
}

// Delete removes an ICB from its loop's list (Algorithm 1: lock, reset
// SW(i), unsplice, set SW(i) back if the list remains nonempty, unlock).
// The ICB itself stays valid: processors still executing its scheduled
// iterations hold pointers to it.
func (p *Pool) Delete(pr machine.Proc, icb *ICB) {
	i := p.listOf(icb)
	l := &p.lists[i]
	l.lock.Lock(pr)
	nonempty := l.unlink(icb)
	p.sw.Clear(i)
	pr.Access(p.swVarOf(i))
	if nonempty {
		p.sw.Set(i)
		pr.Access(p.swVarOf(i))
	}
	l.lock.Unlock(pr)
}

// link splices icb into the list; the caller holds the list's lock. An
// instance goes at the tail (Algorithm 2). A fan-out block goes at the
// head: the fan-out list is a stack, so the newest — the deepest —
// fan-out is claimed first, and a nested fan-out drains before its parent
// publishes more.
func (l *plist) link(icb *ICB) {
	if icb.inList {
		panic(fmt.Sprintf("pool: double append of %v", icb))
	}
	icb.inList = true
	l.n.Add(1)
	if icb.fan {
		y := l.head
		icb.left, icb.right = nil, y
		l.head = icb
		if y != nil {
			y.left = icb
		} else {
			l.tail = icb
		}
		return
	}
	x := l.tail
	icb.left, icb.right = x, nil
	l.tail = icb
	if x != nil {
		x.right = icb
	} else {
		l.head = icb
	}
}

// unlink removes icb from the list and reports whether the list still
// holds a block; the caller holds the list's lock.
func (l *plist) unlink(icb *ICB) (nonempty bool) {
	if !icb.inList {
		panic(fmt.Sprintf("pool: delete of unlisted %v", icb))
	}
	icb.inList = false
	l.n.Add(-1)
	x, y := icb.left, icb.right
	if x != nil {
		x.right = y
	} else {
		l.head = y
	}
	if y != nil {
		y.left = x
	} else {
		l.tail = x
	}
	icb.left, icb.right = nil, nil
	return l.head != nil
}

// SearchStats counts the work done by the SEARCH sweep (driven by the
// core execution kernel), for the O2 overhead accounting of Section IV.
type SearchStats struct {
	// Sweeps is the number of leading-one-detection operations on SW.
	Sweeps int64
	// LockFailures counts lists skipped because their lock was held.
	LockFailures int64
	// Retests counts lists found empty on the locked retest of SW(i).
	Retests int64
	// Walked counts ICBs inspected for available iterations.
	Walked int64
	// Saturated counts lists walked to the end without an adoptable ICB.
	Saturated int64
}

// First starts a SEARCH sweep: leading-one detection on SW (Algorithm 4
// step 1). It returns an opaque positive cursor identifying the first
// candidate list, or 0 when no list advertises work. The SEARCH loop
// itself — retries, stop checks, backoff — lives in the core execution
// kernel; the pool only exposes the sweep primitives.
func (p *Pool) First(pr machine.Proc) int {
	return p.scanFrom(pr, 0)
}

// Next continues a sweep past cursor i: the next set bit of SW after i,
// or 0 when the sweep is exhausted. Continuing at the next set bit rather
// than restarting at 1 preserves the paper's intent ("processors can go
// to the next nonempty linked list when the i-th linked list is locked").
func (p *Pool) Next(pr machine.Proc, i int) int {
	return p.scanFrom(pr, i)
}

// scanFrom finds the lowest set SW bit strictly greater than i, walking
// shard words in order and charging one access against each shard word
// examined. A shard word is examined until one advertises a list; with a
// single shard this is exactly the classic one-access leading-one scan.
// The last shard word also advertises the fan-out list.
func (p *Pool) scanFrom(pr machine.Proc, i int) int {
	if i < 0 {
		i = 0
	}
	last := len(p.swVars) - 1
	if i >= p.nlists {
		// An exhausted cursor still rereads the final shard word to see
		// that nothing is advertised past it — the single-word scan
		// charged this access too. Past the last loop list, that word's
		// fan-out bit is all that is left.
		pr.Access(p.swVars[last])
		if i == p.nlists && p.sw.Get(p.nlists+1) {
			return p.nlists + 1
		}
		return 0
	}
	for s := i / p.shardSize; ; s++ {
		pr.Access(p.swVars[s])
		hi := min((s+1)*p.shardSize, p.nlists)
		if s == last {
			hi = p.nlists + 1
		}
		if b := p.sw.NextSet(i); b != 0 && b <= hi {
			return b
		}
		if s == last {
			return 0
		}
		// The next set bit (if any) lives in a later shard word; keep
		// examining (and charging) subsequent words so the sweep's cost
		// tracks the number of words actually read.
		i = hi
	}
}

// TryAdopt attempts to adopt an ICB from the list at cursor i (Algorithm
// 4 steps 2-4): lock the list, retest SW(i), walk it for an ICB with
// pcount < bound, increment pcount and return it. nil means the caller
// should continue the sweep at Next(pr, i).
//
// When needs is non-nil, only ICBs for which it reports true are adopted;
// static pre-assignment schemes use the filter to keep processors with no
// remaining assignment on an instance from occupying its pcount slots.
// With block set, a held list lock is waited on (FIFO) instead of
// skipped — the kernel escalates to blocking after fruitless sweeps so a
// searcher's try-lock cannot lose its race indefinitely under
// deterministic timing.
func (p *Pool) TryAdopt(pr machine.Proc, i int, needs func(*ICB) bool, block bool, st *SearchStats) *ICB {
	if i > p.nlists {
		needs = nil // the fan-out list holds no loop instance to filter
	}
	l := &p.lists[i]
	if block {
		l.lock.Lock(pr)
	} else if !l.lock.TryLock(pr) {
		st.LockFailures++
		return nil
	}
	// Retest SW(i) under the lock: the list may have been emptied between
	// the SW fetch and the lock acquisition.
	pr.Access(p.swVarOf(i))
	if !p.sw.TestAndClear(i) {
		st.Retests++
		l.lock.Unlock(pr)
		return nil
	}
	adopt := machine.Instr{Test: machine.TestLT, Op: machine.OpInc}
	for icb := l.head; icb != nil; icb = icb.right {
		st.Walked++
		if needs != nil && !needs(icb) {
			continue
		}
		// {pcount < bound; Increment}: adopt the first ICB that still
		// needs processors.
		adopt.TestVal = icb.Bound
		if _, ok := icb.PCount.Exec(pr, adopt); ok {
			p.sw.Set(i)
			pr.Access(p.swVarOf(i))
			l.lock.Unlock(pr)
			return icb
		}
	}
	st.Saturated++
	p.sw.Set(i)
	pr.Access(p.swVarOf(i))
	l.lock.Unlock(pr)
	return nil
}

// FanCursor returns the cursor of the fan-out list, the last a sweep can
// reach.
func (p *Pool) FanCursor() int { return p.nlists + 1 }

// Head returns the head of loop num's list (testing only; callers must
// ensure quiescence).
func (p *Pool) Head(num int) *ICB { return p.lists[p.loopList(num)].head }

// SWString renders the loop lists' bits of the control word as a bit
// string (testing/diagnostics); the fan-out list's bit is not shown.
func (p *Pool) SWString() string { return p.sw.String()[:p.nlists] }

// Empty reports whether every list is empty (testing/diagnostics).
func (p *Pool) Empty() bool { return !p.sw.Any() }

// DumpState renders the pool's control word and per-list occupancy for
// stuck-run diagnostics. It takes no locks and walks no lists — the
// whole point is that it stays safe when a list lock is wedged — so the
// figures are each individually atomic, not mutually consistent.
func (p *Pool) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pool: per-loop SW=%s lists=%d\n", p.SWString(), p.nlists)
	for i := 1; i <= p.nlists; i++ {
		if n := p.lists[i].n.Load(); n != 0 {
			fmt.Fprintf(&b, "  list %d: %d ICB(s)\n", i, n)
		}
	}
	if n := p.lists[p.nlists+1].n.Load(); n != 0 {
		fmt.Fprintf(&b, "  fan-out list: %d block(s)\n", n)
	}
	return b.String()
}
