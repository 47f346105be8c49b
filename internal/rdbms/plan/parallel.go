package plan

import (
	"fmt"
	"runtime"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file implements the morsel-driven parallelization pass: after the
// plan is built, fused, and pruned, parallelize replaces eligible pipeline
// fragments — SCAN→FILTER→PROJECT chains, hash aggregations over such
// chains, and hash-join probes — with a GatherNode that runs the whole
// fragment once per heap partition and merges the worker streams. A
// fragment is eligible when every expression in it is parallel-safe (no
// volatile UDFs), the aggregate (if any) is mergeable (no DISTINCT; MIN/MAX
// over a statically typed argument), it is not under a LIMIT (row budgets
// do not cross goroutines, so LIMIT is a barrier), and the table is large
// enough for the configured worker count to exceed one.

// GatherNode runs its input fragment once per heap partition and merges
// the per-worker streams. Merge strategy:
//
//	ordered          — partition streams drained in partition order; output
//	                   order identical to the serial pipeline.
//	two-phase agg    — per-worker partial hash tables merged, then sorted
//	                   group emission (Agg set).
//	partitioned probe— shared hash-join build table, workers probe their
//	                   partitions (Join set).
type GatherNode struct {
	baseNode
	// Input is the parallelized subtree, displayed as the EXPLAIN child.
	Input Node
	// Scan is the chain's bottom scan; Ops are the chain operators above it
	// in bottom-up order (Filter/Project/MultiExtract), excluding the
	// aggregate or join root when Agg/Join is set.
	Scan *ScanNode
	Ops  []Node
	// Agg selects two-phase aggregation; Join selects partitioned probe;
	// Sort/TopN select sorted merge (each partition sorts locally with
	// appended key columns, the merge k-way-scans on those keys). At most
	// one of the four is non-nil.
	Agg     *HashAggNode
	Join    *HashJoinNode
	Sort    *SortNode
	TopN    *TopNNode
	Workers int
}

// MergeStrategy names how worker streams are combined (EXPLAIN).
func (g *GatherNode) MergeStrategy() string {
	switch {
	case g.Agg != nil:
		return "two-phase agg"
	case g.Join != nil:
		return "partitioned probe"
	case g.Sort != nil || g.TopN != nil:
		return "sorted"
	default:
		return "ordered"
	}
}

// Label implements Node.
func (g *GatherNode) Label() string { return "Gather" }

// Details implements Node.
func (g *GatherNode) Details() []string {
	return []string{fmt.Sprintf("Workers: %d  Merge: %s", g.Workers, g.MergeStrategy())}
}

// Children implements Node.
func (g *GatherNode) Children() []Node { return []Node{g.Input} }

func (g *GatherNode) batchAnnotation() string {
	return " (batch, parallel" + scanModes(g.Scan) + ")"
}

// buildPartition constructs one worker's operator chain over a page range
// of view v (the statement's pinned snapshot — every partition scans the
// same frozen page table Partitions was computed from). It runs on the
// worker goroutine, so per-worker scratch (scan eval contexts, fused
// extraction kernels) is instantiated here.
func (g *GatherNode) buildPartition(v storage.ReadView, r storage.PageRange) (exec.BatchIterator, error) {
	// Predicates stay pushed into the partition scans, which evaluate them
	// in-scan via the SelFilter (the compiled filter is immutable and
	// shared, per-partition kernel/selection state is instantiated lazily
	// on this worker goroutine). Worker-local batch pools in the mergers
	// make selection-carrying and filtered batches safe to hand across the
	// gather channel.
	var cur exec.BatchIterator = g.Scan.openRange(v, r.Start, r.End)
	for _, op := range g.Ops {
		switch x := op.(type) {
		case *FilterNode:
			cur = &exec.BatchFilterIter{In: cur, Pred: conjoinExec(x.Preds)}
		case *ProjectNode:
			cur = &exec.BatchProjectIter{In: cur, Exprs: x.Exprs}
		case *MultiExtractNode:
			kernel, err := x.Factory(x.Reqs)
			if err != nil {
				return nil, err
			}
			men := &exec.BatchMultiExtractIter{In: cur, DataIdx: x.DataIdx, Kernel: kernel, K: len(x.Reqs)}
			if x.SegFactory != nil {
				if men.SegKernel, err = x.SegFactory(x.Reqs); err != nil {
					return nil, err
				}
			}
			cur = men
		default:
			return nil, fmt.Errorf("plan: unparallelizable operator %T in gather chain", op)
		}
	}
	// A sorted-merge gather sorts each partition locally; the appended key
	// columns let the merge compare precomputed keys. Top-N additionally
	// pushes the bound into the partition, so each worker keeps at most N
	// rows.
	switch {
	case g.TopN != nil:
		cur = &exec.BatchTopNIter{
			In: cur, Keys: g.TopN.Keys, N: g.TopN.N, Size: g.TopN.BatchSize,
			AppendKeys: true, Heap: v.Owner(),
		}
	case g.Sort != nil:
		cur = &exec.BatchSortIter{
			In: cur, Keys: g.Sort.Keys, Size: g.Sort.BatchSize,
			AppendKeys: true, Heap: v.Owner(),
		}
	}
	return cur, nil
}

// OpenBatch implements batchNode. The view is resolved once and bound into
// every partition builder, so all workers scan the page table the
// partitions were computed from.
func (g *GatherNode) OpenBatch(ec *exec.ExecCtx) (exec.BatchIterator, bool) {
	v := execView(ec, g.Scan.Heap)
	owner := v.Owner()
	parts := v.Partitions(g.Workers)
	if len(parts) > 1 {
		owner.RecordParallelWorkers(len(parts))
		if v.Segmented() {
			owner.RecordParallelStriped(1)
		}
	}
	build := func(r storage.PageRange) (exec.BatchIterator, error) {
		return g.buildPartition(v, r)
	}
	switch {
	case g.Agg != nil:
		return exec.NewParallelHashAgg(parts, build, g.Agg.GroupBy, g.Agg.Aggs, false, g.Agg.BatchSize), true
	case g.Join != nil:
		outWidth := len(g.Join.Layout().Cols)
		buildWidth := len(g.Join.Build.Layout().Cols)
		return exec.NewParallelHashJoin(parts, build, g.Join.Build.Open(ec),
			g.Join.ProbeKeys, g.Join.BuildKeys, conjoinExec(g.Join.Residual),
			g.Scan.BatchSize, outWidth, buildWidth), true
	case g.Sort != nil || g.TopN != nil:
		keys, limit, size := []exec.SortKey(nil), int64(-1), g.Scan.BatchSize
		if g.TopN != nil {
			keys, limit, size = g.TopN.Keys, g.TopN.N, g.TopN.BatchSize
		} else {
			keys, size = g.Sort.Keys, g.Sort.BatchSize
		}
		owner.RecordSortedMergeParts(int64(len(parts)))
		return exec.NewParallelSortedMerge(parts, build, keys, limit, size), true
	default:
		return exec.NewParallelPipeline(parts, build), true
	}
}

// Open implements Node.
func (g *GatherNode) Open(ec *exec.ExecCtx) exec.Iterator {
	it, _ := g.OpenBatch(ec)
	return &exec.BatchToRow{In: it}
}

// pipelineWorkers computes the worker count for a pipeline over h: one
// worker per ParallelScanMinPages pages, bounded by GOMAXPROCS and by the
// max_parallel_workers session setting (0 = GOMAXPROCS default, 1 = force
// serial).
func (p *Planner) pipelineWorkers(h storage.ReadView) int {
	if p.Cfg == nil || !p.Cfg.EnableBatch {
		return 1
	}
	if p.Cfg.MaxParallelWorkers == 1 || p.Cfg.ParallelScanMinPages <= 0 {
		return 1
	}
	w := h.NumPages() / p.Cfg.ParallelScanMinPages
	maxW := runtime.GOMAXPROCS(0)
	if p.Cfg.MaxParallelWorkers > 0 && p.Cfg.MaxParallelWorkers < maxW {
		maxW = p.Cfg.MaxParallelWorkers
	}
	if w > maxW {
		w = maxW
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelize rewrites the plan tree, wrapping eligible fragments in
// GatherNodes. It returns the (possibly replaced) node.
func (p *Planner) parallelize(n Node) Node {
	return p.parallelizeNode(n, false)
}

func (p *Planner) parallelizeNode(n Node, underLimit bool) Node {
	switch x := n.(type) {
	case *LimitNode:
		x.Child = p.parallelizeNode(x.Child, true)
		return x
	case *SortNode:
		// A sort over a parallelizable chain sorts each partition locally
		// and k-way-merges the sorted streams; otherwise it remains a full
		// barrier (a LIMIT above it cannot early-stop the child).
		if g := p.gatherSort(x, nil); g != nil {
			return g
		}
		x.Child = p.parallelizeNode(x.Child, false)
		return x
	case *TopNNode:
		// Top-N pushes its bound into each partition: workers keep at most
		// N rows, the merge stops after emitting N.
		if g := p.gatherSort(nil, x); g != nil {
			return g
		}
		x.Child = p.parallelizeNode(x.Child, false)
		return x
	case *UniqueNode:
		x.Child = p.parallelizeNode(x.Child, underLimit)
		return x
	case *HashAggNode:
		if g := p.gatherAgg(x); g != nil {
			return g
		}
		x.Child = p.parallelizeNode(x.Child, false)
		return x
	case *GroupAggNode:
		x.Child = p.parallelizeNode(x.Child, underLimit)
		return x
	case *HashJoinNode:
		if !underLimit {
			if g := p.gatherJoin(x); g != nil {
				g.Join.Build = p.parallelizeNode(g.Join.Build, false)
				return g
			}
		}
		x.Probe = p.parallelizeNode(x.Probe, underLimit)
		x.Build = p.parallelizeNode(x.Build, false)
		return x
	case *MergeJoinNode:
		x.Left = p.parallelizeNode(x.Left, false)
		x.Right = p.parallelizeNode(x.Right, false)
		return x
	case *NestedLoopNode:
		x.Outer = p.parallelizeNode(x.Outer, underLimit)
		x.Inner = p.parallelizeNode(x.Inner, false)
		return x
	case *FilterNode, *ProjectNode, *MultiExtractNode, *ScanNode:
		// A lone filtered scan (a hash-join build side, say) gathers like
		// any other chain; chainWorthwhile keeps a bare unfiltered scan
		// serial.
		if !underLimit {
			if g := p.gatherChain(n); g != nil {
				return g
			}
		}
		switch c := n.(type) {
		case *FilterNode:
			c.Child = p.parallelizeNode(c.Child, underLimit)
		case *ProjectNode:
			c.Child = p.parallelizeNode(c.Child, underLimit)
		case *MultiExtractNode:
			c.Child = p.parallelizeNode(c.Child, underLimit)
		}
		return n
	default:
		return n
	}
}

// chainOf decomposes n into a Filter/Project/MultiExtract chain over a
// batch ScanNode, returning the operators in bottom-up order. ok is false
// when the subtree has any other shape or a non-batch member.
func chainOf(n Node) (ops []Node, scan *ScanNode, ok bool) {
	var topDown []Node
	cur := n
	for {
		switch x := cur.(type) {
		case *ScanNode:
			if !x.Batch {
				return nil, nil, false
			}
			for i := len(topDown) - 1; i >= 0; i-- {
				ops = append(ops, topDown[i])
			}
			return ops, x, true
		case *FilterNode:
			if !x.Batch {
				return nil, nil, false
			}
			topDown = append(topDown, x)
			cur = x.Child
		case *ProjectNode:
			if !x.Batch {
				return nil, nil, false
			}
			topDown = append(topDown, x)
			cur = x.Child
		case *MultiExtractNode:
			topDown = append(topDown, x)
			cur = x.Child
		default:
			return nil, nil, false
		}
	}
}

// chainSafe reports whether every expression in the chain (and the scan's
// pushed-down predicates) is parallel-safe.
func chainSafe(ops []Node, scan *ScanNode) bool {
	for _, e := range scan.Preds {
		if !exec.ParallelSafe(e) {
			return false
		}
	}
	for _, op := range ops {
		switch x := op.(type) {
		case *FilterNode:
			for _, e := range x.Preds {
				if !exec.ParallelSafe(e) {
					return false
				}
			}
		case *ProjectNode:
			for _, e := range x.Exprs {
				if !exec.ParallelSafe(e) {
					return false
				}
			}
		}
	}
	return true
}

// chainWorthwhile reports whether the chain does enough per-row work for a
// gather to pay off. Plain column projections over a filterless scan are
// excluded — they are served by the fused collector (fusedCollect) or a
// serial scan, and a gather would only add clone+merge overhead.
func chainWorthwhile(ops []Node, scan *ScanNode) bool {
	if len(scan.Preds) > 0 {
		return true
	}
	for _, op := range ops {
		switch x := op.(type) {
		case *FilterNode, *MultiExtractNode:
			return true
		case *ProjectNode:
			for _, e := range x.Exprs {
				if _, plain := e.(*exec.ColExpr); !plain {
					return true
				}
			}
		}
	}
	return false
}

// newGather wraps input (a verified chain) in a GatherNode.
func newGather(input Node, ops []Node, scan *ScanNode, workers int) *GatherNode {
	return &GatherNode{
		baseNode: baseNode{layout: input.Layout(), rows: input.Rows(), cost: input.Cost()},
		Input:    input,
		Scan:     scan,
		Ops:      ops,
		Workers:  workers,
	}
}

// gatherChain parallelizes a plain SCAN→FILTER→PROJECT chain.
func (p *Planner) gatherChain(n Node) *GatherNode {
	ops, scan, ok := chainOf(n)
	if !ok || !chainSafe(ops, scan) || !chainWorthwhile(ops, scan) {
		return nil
	}
	w := p.pipelineWorkers(scan.Heap)
	if w <= 1 {
		return nil
	}
	return newGather(n, ops, scan, w)
}

// gatherSort parallelizes a sort (s) or bounded Top-N (t) over a chain as a
// locally-sorted partition fan-out merged with a k-way sorted merge. Exactly
// one of s, t is non-nil. Unlike gatherChain, no chainWorthwhile gate: the
// O(n log n) sort itself is the work worth spreading across workers.
func (p *Planner) gatherSort(s *SortNode, t *TopNNode) *GatherNode {
	var child Node
	var keys []exec.SortKey
	var node Node
	var batch bool
	if t != nil {
		child, keys, node, batch = t.Child, t.Keys, t, t.Batch
	} else {
		child, keys, node, batch = s.Child, s.Keys, s, s.Batch
	}
	if !batch {
		return nil
	}
	for _, k := range keys {
		if !exec.ParallelSafe(k.Expr) {
			return nil
		}
	}
	ops, scan, ok := chainOf(child)
	if !ok || !chainSafe(ops, scan) {
		return nil
	}
	w := p.pipelineWorkers(scan.Heap)
	if w <= 1 {
		return nil
	}
	g := newGather(node, ops, scan, w)
	g.Sort, g.TopN = s, t
	return g
}

// aggsMergeable reports whether two-phase aggregation is exact for aggs:
// DISTINCT aggregates are not (per-worker distinct sets double-count), and
// MIN/MAX over a statically untyped argument could pick a different
// first-seen type than the serial heap-order accumulator.
func aggsMergeable(aggs []*exec.AggSpec) bool {
	for _, a := range aggs {
		if a.Distinct {
			return false
		}
		if (a.Kind == exec.AggMin || a.Kind == exec.AggMax) && a.Arg != nil && a.Arg.Type() == types.Unknown {
			return false
		}
	}
	return true
}

// gatherAgg parallelizes a hash aggregation over a chain as two-phase
// aggregation.
func (p *Planner) gatherAgg(h *HashAggNode) *GatherNode {
	if !h.Batch || !aggsMergeable(h.Aggs) {
		return nil
	}
	for _, g := range h.GroupBy {
		if !exec.ParallelSafe(g) {
			return nil
		}
	}
	for _, a := range h.Aggs {
		if a.Arg != nil && !exec.ParallelSafe(a.Arg) {
			return nil
		}
	}
	ops, scan, ok := chainOf(h.Child)
	if !ok || !chainSafe(ops, scan) {
		return nil
	}
	w := p.pipelineWorkers(scan.Heap)
	if w <= 1 {
		return nil
	}
	g := newGather(h, ops, scan, w)
	g.Agg = h
	return g
}

// gatherJoin parallelizes a hash join whose probe side is a chain: shared
// build table, partitioned probe.
func (p *Planner) gatherJoin(j *HashJoinNode) *GatherNode {
	for _, e := range j.ProbeKeys {
		if !exec.ParallelSafe(e) {
			return nil
		}
	}
	for _, e := range j.BuildKeys {
		if !exec.ParallelSafe(e) {
			return nil
		}
	}
	for _, e := range j.Residual {
		if !exec.ParallelSafe(e) {
			return nil
		}
	}
	ops, scan, ok := chainOf(j.Probe)
	if !ok || !chainSafe(ops, scan) {
		return nil
	}
	w := p.pipelineWorkers(scan.Heap)
	if w <= 1 {
		return nil
	}
	g := newGather(j, ops, scan, w)
	g.Join = j
	return g
}
