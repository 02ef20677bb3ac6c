// Package descr is the "compiler" of the scheme: it takes a standardized
// loop nest and emits the descriptor arrays the paper's run-time algorithms
// consume (Section II-D, Figs. 5 and 6):
//
//   - DEPTH(i): the number of loops enclosing innermost parallel loop i,
//   - BOUND(i): the bound of loop i (constant or expression),
//   - DESCRPT_i(j): per enclosing level j, the type (parallel/serial),
//     bound and identity of the enclosing loop, whether i is the last
//     innermost loop of that level (last), the successor loop at that
//     level (next), and the IF guards protecting i at that level
//     (conditnl / cond_exp / altern).
//
// # The virtual root level
//
// The paper's top-level sequencing ("loops at the same nesting level are
// executed in sequence") is represented uniformly by enclosing the whole
// program in a virtual serial loop with bound 1 at level 1. All real loops
// therefore sit at levels >= 2, and internal depth = paper depth + 1. When
// the EXIT walk climbs past level 1 the program is complete. Figure dumps
// subtract the root level to match the paper.
//
// # Guards
//
// The paper's DESCRPT record holds a single conditnl/cond_exp/altern
// triple. We generalize to an ordered list of guards per level so that
// several IF constructs nested at the same level are handled; a guard is
// recorded only for constructs on the TRUE branch of an IF (exactly the
// paper's conditnl convention — FALSE-branch loops are reached only
// through an altern pointer, never guarded by their own IF).
package descr

import (
	"fmt"

	"repro/internal/loopir"
)

// Guard is one IF-THEN-ELSE protecting a leaf's construct chain at some
// level. Cond is the paper's cond_exp; Altern is the number of the entry
// leaf of the FALSE branch, or 0 when the FALSE branch is empty.
type Guard struct {
	Label  string
	Cond   loopir.CondFn
	Altern int
}

// String renders the guard as "label->altern loop number" (0: none). The
// condition is a function: %v would print its address, which changes from
// build to build.
func (g Guard) String() string { return fmt.Sprintf("%s->%d", g.Label, g.Altern) }

// LevelDesc is the DESCRPT_i(j) record for one enclosing level.
type LevelDesc struct {
	// Parallel reports whether the enclosing loop at this level is a
	// parallel loop; otherwise it is serial (the virtual root is serial).
	Parallel bool
	// Bound is the enclosing loop's bound (evaluated with the indexes of
	// the loops enclosing it, i.e. levels 2..j-1).
	Bound loopir.Bound
	// LoopID is the unique node ID of the enclosing loop (0 for the
	// virtual root); it keys the BAR_COUNT table.
	LoopID int
	// LoopLabel names the enclosing loop for diagnostics.
	LoopLabel string
	// Last reports whether the leaf's construct chain is the final
	// construct within this loop's body (the paper's "last").
	Last bool
	// Next is the number of the entry leaf of the successor construct at
	// this level. For the last construct of a serial loop it wraps to the
	// entry leaf of the loop body's first construct (used when the serial
	// index advances); for the last construct of a parallel loop it is 0
	// (the barrier decides the successor at an outer level).
	Next int
	// Guards are the IF guards protecting the chain at this level,
	// outermost first.
	Guards []Guard
}

// LeafInfo describes one innermost parallel loop.
type LeafInfo struct {
	// Num is the paper's loop number, 1..M in program order.
	Num int
	// Node is the leaf loop node (Kind Doall or Doacross, with Iter set).
	Node *loopir.Node
	// Depth is the internal depth: number of enclosing loops including
	// the virtual root. The paper's DEPTH(i) is Depth-1.
	Depth int
	// Levels[j] for j in 1..Depth is the DESCRPT_i(j) record. Levels[0]
	// is unused.
	Levels []LevelDesc
}

// PaperDepth returns the paper's DEPTH(i) (excluding the virtual root).
func (l *LeafInfo) PaperDepth() int { return l.Depth - 1 }

// Program is a compiled nest: the descriptor arrays plus bookkeeping.
type Program struct {
	// Nest is the standardized nest the program was compiled from.
	Nest *loopir.Nest
	// M is the number of innermost parallel loops.
	M int
	// Entry is the number of the entry leaf of the first top-level
	// construct: the initial ENTER target.
	Entry  int
	leaves []*LeafInfo
	byNode map[*loopir.Node]int
}

// Leaf returns the LeafInfo for loop number num (1..M).
func (p *Program) Leaf(num int) *LeafInfo {
	if num < 1 || num > p.M {
		panic(fmt.Sprintf("descr: leaf number %d out of range [1,%d]", num, p.M))
	}
	return p.leaves[num-1]
}

// Leaves returns all leaves in numbering order.
func (p *Program) Leaves() []*LeafInfo { return p.leaves }

// NumOf returns the number of a leaf node, or 0 if nd is not a leaf of
// this program.
func (p *Program) NumOf(nd *loopir.Node) int { return p.byNode[nd] }

// container records where a node sits: in which sequence, at which index,
// owned by which construct (nil owner = the top-level sequence).
type container struct {
	seq    []*loopir.Node
	idx    int
	owner  *loopir.Node
	isElse bool // owner is an IF and the node is in its ELSE branch
}

// Compile builds the descriptor arrays for a standardized nest.
func Compile(nest *loopir.Nest) (*Program, error) {
	if !nest.Standardized {
		return nil, fmt.Errorf("descr: nest is not standardized")
	}
	if err := nest.Validate(); err != nil {
		return nil, fmt.Errorf("descr: invalid nest: %w", err)
	}
	p := &Program{Nest: nest, byNode: map[*loopir.Node]int{}}

	// Pass 1: number leaves in program order and record containment.
	ctnr := map[*loopir.Node]container{}
	var walk func(seq []*loopir.Node, owner *loopir.Node, isElse bool)
	walk = func(seq []*loopir.Node, owner *loopir.Node, isElse bool) {
		for i, nd := range seq {
			ctnr[nd] = container{seq: seq, idx: i, owner: owner, isElse: isElse}
			switch nd.Kind {
			case loopir.KindIf:
				walk(nd.Then, nd, false)
				walk(nd.Else, nd, true)
			case loopir.KindStmt:
				// unreachable in a standardized nest (Validate + Standardize)
			default:
				if nd.IsLeaf() {
					p.M++
					p.byNode[nd] = p.M
					p.leaves = append(p.leaves, &LeafInfo{Num: p.M, Node: nd})
				} else {
					walk(nd.Body, nd, false)
				}
			}
		}
	}
	walk(nest.Root, nil, false)
	if p.M == 0 {
		return nil, fmt.Errorf("descr: nest has no innermost parallel loops")
	}

	// Pass 2: per-leaf descriptors.
	for _, leaf := range p.leaves {
		if err := p.describe(leaf, ctnr); err != nil {
			return nil, err
		}
	}
	p.Entry = p.entryLeaf(nest.Root[0])
	return p, nil
}

// entryLeaf returns the number of the leftmost leaf of a construct: the
// leaf activated first when the construct is entered (IFs descend their
// THEN branch; guards recorded on that leaf dispatch to the FALSE branch).
func (p *Program) entryLeaf(nd *loopir.Node) int {
	for {
		if num, ok := p.byNode[nd]; ok {
			return num
		}
		switch nd.Kind {
		case loopir.KindIf:
			nd = nd.Then[0]
		default:
			nd = nd.Body[0]
		}
	}
}

// describe fills in Depth and Levels for one leaf by walking up the
// containment chain, one enclosing loop per level.
func (p *Program) describe(leaf *LeafInfo, ctnr map[*loopir.Node]container) error {
	// Collect enclosing loops, innermost first, ending at the virtual root.
	type levelCtx struct {
		loop *loopir.Node // nil = virtual root
		node *loopir.Node // the construct of leaf's chain directly within loop's body
	}
	var chain []levelCtx
	segStart := leaf.Node // where this level's guard/successor walk begins
	node := leaf.Node
	for {
		c, ok := ctnr[node]
		if !ok {
			return fmt.Errorf("descr: node %q has no container", node.Label)
		}
		if c.owner == nil {
			chain = append(chain, levelCtx{loop: nil, node: segStart})
			break
		}
		if c.owner.Kind == loopir.KindIf {
			node = c.owner
			continue
		}
		chain = append(chain, levelCtx{loop: c.owner, node: segStart})
		node = c.owner
		segStart = c.owner
	}
	leaf.Depth = len(chain)
	leaf.Levels = make([]LevelDesc, leaf.Depth+1)

	for i, lc := range chain {
		level := leaf.Depth - i // innermost first
		desc := LevelDesc{}
		if lc.loop == nil {
			desc.Parallel = false
			desc.Bound = loopir.Const(1)
			desc.LoopID = 0
			desc.LoopLabel = "<program>"
		} else {
			desc.Parallel = lc.loop.Kind.IsParallel()
			desc.Bound = lc.loop.Bound
			desc.LoopID = lc.loop.ID
			desc.LoopLabel = lc.loop.Label
		}

		// Walk from the chain construct up through enclosing IFs at this
		// level, collecting guards and finding the successor.
		cur := lc.node
		last := true
		next := 0
		var guards []Guard
		for {
			c := ctnr[cur]
			if next == 0 && c.idx < len(c.seq)-1 {
				last = false
				next = p.entryLeaf(c.seq[c.idx+1])
			}
			if c.owner != nil && c.owner.Kind == loopir.KindIf {
				if !c.isElse {
					g := Guard{Label: c.owner.Label, Cond: c.owner.Cond}
					if len(c.owner.Else) > 0 {
						g.Altern = p.entryLeaf(c.owner.Else[0])
					}
					guards = append([]Guard{g}, guards...) // outermost first
				}
				cur = c.owner
				continue
			}
			// Reached the loop body (or top-level) sequence.
			if last && !desc.Parallel {
				// Serial (or root) wrap-around: the successor when the
				// serial index advances is the body's first construct.
				next = p.entryLeaf(c.seq[0])
			}
			break
		}
		desc.Last = last
		desc.Next = next
		desc.Guards = guards
		leaf.Levels[level] = desc
	}
	return nil
}
