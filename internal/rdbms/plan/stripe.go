package plan

import "github.com/sinewdata/sinew/internal/rdbms/exec"

// This file implements the scan-compilation pass. Every batch scan with
// pushed-down predicates gets them compiled into an in-scan
// exec.SelFilter, whose ranked conjuncts run page by page against the
// page's column vectors and emit selection vectors. On top of that, every
// MultiExtractNode chain sitting directly on a batch scan of a heap with
// frozen column-striped pages attaches the family's segment-kernel factory
// to each MultiExtractNode whose data column is segment-backed at that
// scan. The fused kernels then read per-attribute vectors out of the
// frozen pages instead of decoding serialized records row by row; the
// heap's row-form pages and foreign segment types fall back to the row
// kernel per batch, so results are identical either way.

// stripedScan reports whether the scan delivers frozen pages whose column
// segments fused extraction above it can read.
func stripedScan(s *ScanNode) bool {
	return s.Batch && s.Heap.Segmented()
}

// stripedFusable reports whether a single-key extraction group over child
// is still worth fusing: a striped scan with a registered segment factory
// benefits even for one key, because only a MultiExtractNode can reach
// the segment vectors.
func (p *Planner) stripedFusable(family string, child Node) bool {
	s, ok := child.(*ScanNode)
	if !ok || !stripedScan(s) {
		return false
	}
	_, ok = p.Funcs.StripedExtract(family)
	return ok
}

// stripeScans walks the plan, compiling every batch scan's predicates into
// its SelFilter and routing MultiExtract-over-scan chains to the segment
// kernels. Extraction atoms inside the predicates resolve their kernel
// factories through the session registry, so a predicate like
// json_int(data,'age') > 30 reads the segment's attribute vector instead
// of parsing records.
func (p *Planner) stripeScans(n Node) {
	if n == nil {
		return
	}
	if m, ok := n.(*MultiExtractNode); ok {
		p.stripeChain(m)
	}
	if s, ok := n.(*ScanNode); ok && s.Batch && len(s.Preds) > 0 && s.SelFilter == nil {
		width := len(s.Heap.Schema().Cols)
		s.SelFilter = exec.CompileSelFilter(s.Preds, width, p.Funcs.StripedExtract, p.Funcs.MultiExtract)
	}
	for _, c := range n.Children() {
		// Inner MultiExtractNodes of a chain already handled by
		// stripeChain are visited again; that is idempotent, so a plain
		// recursive walk keeps this simple.
		p.stripeScans(c)
	}
}

// stripeChain handles one stack of MultiExtractNodes over a scan. Every
// node in the stack gets the segment factory of its family — segments ride
// along batch columns (RowBatch.Segs survives extraction pass-through), so
// upper nodes of the stack see their data column striped too.
func (p *Planner) stripeChain(top *MultiExtractNode) {
	var chain []*MultiExtractNode
	n := Node(top)
	for {
		m, ok := n.(*MultiExtractNode)
		if !ok {
			break
		}
		chain = append(chain, m)
		n = m.Child
	}
	scan, ok := n.(*ScanNode)
	if !ok || !stripedScan(scan) {
		return
	}
	for _, m := range chain {
		if f, ok := p.Funcs.StripedExtract(m.Family); ok {
			m.SegFactory = f
		}
	}
}
