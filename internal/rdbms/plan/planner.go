package plan

import (
	"fmt"
	"math"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// Planner builds physical plans.
type Planner struct {
	Cat   Catalog
	Funcs *exec.Registry
	Cfg   *Config
}

// NewPlanner constructs a planner; cfg nil means DefaultConfig.
func NewPlanner(cat Catalog, funcs *exec.Registry, cfg *Config) *Planner {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	return &Planner{Cat: cat, Funcs: funcs, Cfg: cfg}
}

// SelectPlan is a planned SELECT ready to execute or explain.
type SelectPlan struct {
	Root        Node
	ColumnNames []string
	ColumnTypes []types.Type
}

// Explain renders the plan tree.
func (sp *SelectPlan) Explain() string { return Explain(sp.Root) }

// Open instantiates the executor against live heaps (embedded callers
// with no concurrent writers). Concurrent sessions use OpenCtx.
func (sp *SelectPlan) Open() exec.Iterator { return sp.Root.Open(nil) }

// OpenCtx instantiates the executor with a statement execution context:
// every scan resolves its heap to the context's pinned snapshot.
func (sp *SelectPlan) OpenCtx(ec *exec.ExecCtx) exec.Iterator { return sp.Root.Open(ec) }

// Collect runs the plan to a fully materialized result. The common
// projection-over-scan shape takes a fused collector that materializes
// each result row in a single copy out of the heap; every other plan runs
// through the operator pipeline. Reads go to live heaps; concurrent
// sessions use CollectCtx.
func (sp *SelectPlan) Collect() ([]storage.Row, error) {
	return sp.CollectCtx(nil)
}

// CollectCtx is Collect under a statement execution context: all scans of
// the statement read the snapshots ec pins (one per heap), so the result
// is consistent with a single storage epoch per table even while writers
// publish new versions. The caller owns ec and releases it.
func (sp *SelectPlan) CollectCtx(ec *exec.ExecCtx) ([]storage.Row, error) {
	if rows, ok, err := fusedCollect(sp.Root, ec); ok {
		return rows, err
	}
	return exec.Collect(sp.Root.Open(ec))
}

// fusedCollect recognizes [Limit →] Project(plain columns) → filterless
// batch Scan and short-circuits the batch pipeline: the scan's transpose
// into column-major batches and the collector's re-transpose into result
// rows collapse into one heap-to-result copy. Any other shape (filters,
// expressions, aggregates, joins, sorts) reports ok=false.
func fusedCollect(n Node, ec *exec.ExecCtx) (rows []storage.Row, ok bool, err error) {
	limit := int64(-1)
	if l, lok := n.(*LimitNode); lok {
		limit = l.N
		n = l.Child
	}
	p, pok := n.(*ProjectNode)
	if !pok {
		return nil, false, nil
	}
	s, sok := p.Child.(*ScanNode)
	if !sok || !s.Batch || len(s.Preds) > 0 {
		return nil, false, nil
	}
	v := execView(ec, s.Heap)
	width := len(v.Schema().Cols)
	cols := make([]int, len(p.Exprs))
	for i, e := range p.Exprs {
		ce, cok := e.(*exec.ColExpr)
		if !cok || ce.Idx < 0 || ce.Idx >= width {
			return nil, false, nil
		}
		cols[i] = ce.Idx
	}
	rows, err = exec.CollectProjectedScan(v, cols, limit, s.BatchSize)
	return rows, true, err
}

// conjunct is one WHERE predicate with its classification bookkeeping.
type conjunct struct {
	ast    sqlparse.Expr
	tables map[string]bool
	used   bool
	// Equi-join decomposition (valid when isEdge): lhs references only
	// lTable, rhs only rTable.
	isEdge         bool
	lhs, rhs       sqlparse.Expr
	lTable, rTable string
}

// relation is an in-progress join input during greedy ordering.
type relation struct {
	node   Node
	layout *Layout
	tables map[string]bool
}

// PlanSelect builds a physical plan for stmt.
func (p *Planner) PlanSelect(stmt *sqlparse.SelectStmt) (*SelectPlan, error) {
	if len(stmt.From) == 0 {
		return p.planNoFrom(stmt)
	}

	// ----- Bind FROM -----
	rels := make([]*relation, 0, len(stmt.From))
	full := &Layout{}
	seen := map[string]bool{}
	for _, ref := range stmt.From {
		eff := ref.EffectiveName()
		if seen[eff] {
			return nil, fmt.Errorf("plan: table name %q specified more than once", eff)
		}
		seen[eff] = true
		heap, stats, err := p.Cat.Table(ref.Name)
		if err != nil {
			return nil, err
		}
		layout := &Layout{Rows: float64(heap.NumRows())}
		for _, c := range heap.Schema().Cols {
			lc := LayoutCol{Table: eff, Name: c.Name, Typ: c.Typ}
			if stats != nil {
				lc.Stats = stats.Columns[c.Name]
			}
			layout.Cols = append(layout.Cols, lc)
		}
		rels = append(rels, &relation{layout: layout, tables: map[string]bool{eff: true}})
		full.Cols = append(full.Cols, layout.Cols...)
		full.Rows *= math.Max(layout.Rows, 1)
		viewRef := heap
		aliasName := eff
		tableName := ref.Name
		// Scan node built after local predicates are known; stash identity.
		rels[len(rels)-1].node = &ScanNode{Heap: viewRef, TableName: tableName, AliasName: aliasName}
	}

	// ----- Normalize and expand -----
	items, names, err := p.expandItems(stmt, full)
	if err != nil {
		return nil, err
	}
	var whereN sqlparse.Expr
	if stmt.Where != nil {
		whereN, err = normalizeRefs(stmt.Where, full)
		if err != nil {
			return nil, err
		}
		if containsAggregate(whereN) {
			return nil, fmt.Errorf("plan: aggregate functions are not allowed in WHERE")
		}
	}
	groupBy := make([]sqlparse.Expr, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		g2 := substituteAliases(g, items, names)
		if groupBy[i], err = normalizeRefs(g2, full); err != nil {
			return nil, err
		}
	}
	var having sqlparse.Expr
	if stmt.Having != nil {
		if having, err = normalizeRefs(stmt.Having, full); err != nil {
			return nil, err
		}
	}
	orderBy := make([]sqlparse.OrderItem, len(stmt.OrderBy))
	for i, o := range stmt.OrderBy {
		e := o.Expr
		// ORDER BY <ordinal> references the select list (SQL standard).
		if lit, ok := e.(*sqlparse.Literal); ok && lit.Val.Typ == types.Int {
			n := lit.Val.I
			if n < 1 || n > int64(len(items)) {
				return nil, fmt.Errorf("plan: ORDER BY position %d is not in select list", n)
			}
			e = items[n-1]
		}
		e = substituteAliases(e, items, names)
		if e, err = normalizeRefs(e, full); err != nil {
			return nil, err
		}
		orderBy[i] = sqlparse.OrderItem{Expr: e, Desc: o.Desc}
	}

	// ----- Classify conjuncts -----
	var conjuncts []*conjunct
	for _, cexpr := range splitConjuncts(whereN, nil) {
		cj := &conjunct{ast: cexpr, tables: referencedTables(cexpr)}
		if be, ok := cexpr.(*sqlparse.BinaryExpr); ok && be.Op == sqlparse.OpEq {
			lt, rt := referencedTables(be.L), referencedTables(be.R)
			if len(lt) == 1 && len(rt) == 1 {
				var lTab, rTab string
				for t := range lt {
					lTab = t
				}
				for t := range rt {
					rTab = t
				}
				if lTab != rTab {
					cj.isEdge = true
					cj.lhs, cj.rhs, cj.lTable, cj.rTable = be.L, be.R, lTab, rTab
				}
			}
		}
		conjuncts = append(conjuncts, cj)
	}

	// ----- Build scans with pushed-down local predicates -----
	for _, rel := range rels {
		scan := rel.node.(*ScanNode)
		var localASTs []sqlparse.Expr
		for _, cj := range conjuncts {
			if cj.used || cj.isEdge {
				continue
			}
			if subsetOf(cj.tables, rel.tables) {
				localASTs = append(localASTs, cj.ast)
				cj.used = true
			}
		}
		es := &estimator{cfg: p.Cfg, layout: rel.layout, rows: rel.layout.Rows}
		sel := 1.0
		for _, a := range localASTs {
			sel *= es.selectivity(a)
		}
		preds := make([]exec.Expr, len(localASTs))
		for i, a := range localASTs {
			if preds[i], err = CompileExpr(a, rel.layout, p.Funcs, "WHERE"); err != nil {
				return nil, err
			}
		}
		inRows := rel.layout.Rows
		outRows := math.Max(inRows*sel, 0)
		scan.Preds = preds
		scan.baseNode = baseNode{
			layout: rel.layout,
			rows:   outRows,
			cost: float64(scan.Heap.SizeBytes())*p.Cfg.SeqPageCostPerByte +
				inRows*(p.Cfg.CPUTupleCost+exprCostOf(preds)),
		}
		p.batchify(scan)
	}

	// ----- Greedy join ordering -----
	cur, curLayout, err := p.orderJoins(rels, conjuncts)
	if err != nil {
		return nil, err
	}

	// Any unapplied conjuncts (shouldn't normally remain) go in a filter.
	var leftover []sqlparse.Expr
	for _, cj := range conjuncts {
		if !cj.used {
			leftover = append(leftover, cj.ast)
		}
	}
	if len(leftover) > 0 {
		preds := make([]exec.Expr, len(leftover))
		es := &estimator{cfg: p.Cfg, layout: curLayout, rows: cur.Rows()}
		sel := 1.0
		for i, a := range leftover {
			if preds[i], err = CompileExpr(a, curLayout, p.Funcs, "WHERE"); err != nil {
				return nil, err
			}
			sel *= es.selectivity(a)
		}
		cur = p.batchify(&FilterNode{
			baseNode: baseNode{layout: curLayout, rows: cur.Rows() * sel,
				cost: cur.Cost() + cur.Rows()*(p.Cfg.CPUTupleCost+exprCostOf(preds))},
			Child: cur, Preds: preds,
		})
	}

	// ----- Aggregation -----
	hasAgg := len(groupBy) > 0
	if !hasAgg {
		for _, it := range items {
			if containsAggregate(it) {
				hasAgg = true
				break
			}
		}
	}
	if !hasAgg && having != nil {
		hasAgg = true
	}

	var itemASTs []sqlparse.Expr // ASTs to compile for the final projection
	preProjLayout := curLayout

	if hasAgg {
		cur, preProjLayout, itemASTs, orderBy, err = p.planAggregation(cur, curLayout, groupBy, having, items, orderBy)
		if err != nil {
			return nil, err
		}
	} else {
		itemASTs = items
	}

	// ----- ORDER BY below projection (non-DISTINCT) -----
	if len(orderBy) > 0 && !stmt.Distinct {
		keys := make([]exec.SortKey, len(orderBy))
		for i, o := range orderBy {
			ke, err := CompileExpr(o.Expr, preProjLayout, p.Funcs, "ORDER BY")
			if err != nil {
				return nil, err
			}
			keys[i] = exec.SortKey{Expr: ke, Desc: o.Desc}
		}
		cur = p.newSort(cur, preProjLayout, keys)
	}

	// ----- Projection -----
	exprs := make([]exec.Expr, len(itemASTs))
	outTypes := make([]types.Type, len(itemASTs))
	outLayout := &Layout{Rows: cur.Rows()}
	es := &estimator{cfg: p.Cfg, layout: preProjLayout, rows: cur.Rows()}
	distinctEst := 1.0
	for i, a := range itemASTs {
		e, err := CompileExpr(a, preProjLayout, p.Funcs, "SELECT")
		if err != nil {
			return nil, err
		}
		exprs[i] = e
		outTypes[i] = e.Type()
		outLayout.Cols = append(outLayout.Cols, LayoutCol{Name: names[i], Typ: e.Type()})
		distinctEst *= es.ndistinct(a)
	}
	cur = p.batchify(&ProjectNode{
		baseNode: baseNode{layout: outLayout, rows: cur.Rows(),
			cost: cur.Cost() + cur.Rows()*(p.Cfg.CPUTupleCost+exprCostOf(exprs))},
		Child: cur, Exprs: exprs,
	})

	// ----- DISTINCT -----
	if stmt.Distinct {
		nGroups := math.Min(distinctEst, math.Max(cur.Rows(), 1))
		allCols := make([]exec.Expr, len(outLayout.Cols))
		for i, c := range outLayout.Cols {
			allCols[i] = &exec.ColExpr{Idx: i, Typ: c.Typ, Name: c.Name}
		}
		if nGroups <= p.Cfg.HashAggMaxGroups {
			cur = p.batchify(&HashAggNode{
				baseNode: baseNode{layout: outLayout, rows: nGroups,
					cost: cur.Cost() + cur.Rows()*p.Cfg.CPUTupleCost*2},
				Child: cur, GroupBy: allCols,
			})
		} else {
			keys := make([]exec.SortKey, len(allCols))
			for i, c := range allCols {
				keys[i] = exec.SortKey{Expr: c}
			}
			cur = p.newSort(cur, outLayout, keys)
			cur = &UniqueNode{
				baseNode: baseNode{layout: outLayout, rows: nGroups,
					cost: cur.Cost() + cur.Rows()*p.Cfg.CPUTupleCost},
				Child: cur,
			}
		}
		// ORDER BY above DISTINCT resolves against the selected items:
		// an ORDER BY expression must be one of the projected expressions
		// (matched structurally) or a projected output column name.
		if len(orderBy) > 0 {
			keys := make([]exec.SortKey, len(orderBy))
			for i, o := range orderBy {
				var ke exec.Expr
				for j, a := range itemASTs {
					if exprKey(a) == exprKey(o.Expr) {
						ke = &exec.ColExpr{Idx: j, Typ: outLayout.Cols[j].Typ, Name: names[j]}
						break
					}
				}
				if ke == nil {
					var err error
					ke, err = CompileExpr(o.Expr, outLayout, p.Funcs, "ORDER BY")
					if err != nil {
						return nil, fmt.Errorf("plan: ORDER BY with DISTINCT must reference selected columns: %v", err)
					}
				}
				keys[i] = exec.SortKey{Expr: ke, Desc: o.Desc}
			}
			cur = p.newSort(cur, outLayout, keys)
		}
	}

	// ----- LIMIT -----
	if stmt.Limit >= 0 {
		cur = p.batchify(&LimitNode{
			baseNode: baseNode{layout: cur.Layout(), rows: math.Min(cur.Rows(), float64(stmt.Limit)), cost: cur.Cost()},
			Child:    cur, N: stmt.Limit,
		})
	}

	cur = p.rewriteTopN(cur)
	p.fuseExtracts(cur)
	p.stripeScans(cur)
	pruneScanColumns(cur)
	p.deriveSkips(cur)
	cur = p.parallelize(cur)
	releasePlanViews(cur)
	return &SelectPlan{Root: cur, ColumnNames: names, ColumnTypes: outTypes}, nil
}

// releasePlanViews rebinds every scan to its owner heap once planning is
// done: the plan-time view (an epoch-pinned snapshot under concurrent
// catalogs) was only needed for race-free costing and plan shaping, and a
// cached plan must not keep that snapshot's page versions alive. Execution
// re-resolves views per statement through the ExecCtx.
func releasePlanViews(n Node) {
	if n == nil {
		return
	}
	if s, ok := n.(*ScanNode); ok {
		s.Heap = s.Heap.Owner()
	}
	for _, c := range n.Children() {
		releasePlanViews(c)
	}
}

// planNoFrom handles SELECT <exprs> with no FROM clause.
func (p *Planner) planNoFrom(stmt *sqlparse.SelectStmt) (*SelectPlan, error) {
	layout := &Layout{Rows: 1}
	exprs := make([]exec.Expr, 0, len(stmt.Items))
	names := make([]string, 0, len(stmt.Items))
	outTypes := make([]types.Type, 0, len(stmt.Items))
	outLayout := &Layout{Rows: 1}
	for _, it := range stmt.Items {
		if it.Star {
			return nil, fmt.Errorf("plan: SELECT * requires a FROM clause")
		}
		e, err := CompileExpr(it.Expr, layout, p.Funcs, "SELECT")
		if err != nil {
			return nil, err
		}
		name := it.Alias
		if name == "" {
			name = exprDisplayName(it.Expr)
		}
		exprs = append(exprs, e)
		names = append(names, name)
		outTypes = append(outTypes, e.Type())
		outLayout.Cols = append(outLayout.Cols, LayoutCol{Name: name, Typ: e.Type()})
	}
	root := &ProjectNode{
		baseNode: baseNode{layout: outLayout, rows: 1, cost: exprCostOf(exprs)},
		Child:    &valuesNode{baseNode: baseNode{layout: layout, rows: 1}},
		Exprs:    exprs,
	}
	return &SelectPlan{Root: root, ColumnNames: names, ColumnTypes: outTypes}, nil
}

// valuesNode emits a single empty row (for FROM-less SELECT).
type valuesNode struct{ baseNode }

func (v *valuesNode) Label() string     { return "Result" }
func (v *valuesNode) Details() []string { return nil }
func (v *valuesNode) Children() []Node  { return nil }
func (v *valuesNode) Open(*exec.ExecCtx) exec.Iterator {
	return &exec.SliceIter{Rows: []storage.Row{{}}}
}

// expandItems resolves stars and normalizes item expressions; it returns the
// item ASTs and output column names.
func (p *Planner) expandItems(stmt *sqlparse.SelectStmt, full *Layout) ([]sqlparse.Expr, []string, error) {
	var items []sqlparse.Expr
	var names []string
	for _, it := range stmt.Items {
		if it.Star {
			matched := false
			for _, c := range full.Cols {
				if it.Table != "" && c.Table != it.Table {
					continue
				}
				items = append(items, &sqlparse.ColumnRef{Table: c.Table, Name: c.Name})
				names = append(names, c.Name)
				matched = true
			}
			if !matched {
				return nil, nil, fmt.Errorf("plan: relation %q in star expansion not found", it.Table)
			}
			continue
		}
		n, err := normalizeRefs(it.Expr, full)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, n)
		name := it.Alias
		if name == "" {
			name = exprDisplayName(it.Expr)
		}
		names = append(names, name)
	}
	return items, names, nil
}

// substituteAliases replaces bare column references that name a select-item
// alias with that item's expression (ORDER BY / GROUP BY alias resolution).
func substituteAliases(e sqlparse.Expr, items []sqlparse.Expr, names []string) sqlparse.Expr {
	cr, ok := e.(*sqlparse.ColumnRef)
	if !ok || cr.Table != "" {
		return e
	}
	for i, n := range names {
		if n == cr.Name && items[i] != nil {
			return items[i]
		}
	}
	return e
}

func subsetOf(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// batchify marks a freshly built node as a batch operator when batch
// execution is enabled; row-only children are bridged by a RowToBatch
// adapter at Open time.
func (p *Planner) batchify(n Node) Node {
	if p.Cfg == nil || !p.Cfg.EnableBatch {
		return n
	}
	size := p.Cfg.BatchSize
	if size <= 0 {
		size = exec.DefaultBatchSize
	}
	switch x := n.(type) {
	case *ScanNode:
		x.Batch, x.BatchSize = true, size
	case *FilterNode:
		x.Batch, x.BatchSize = true, size
	case *ProjectNode:
		x.Batch, x.BatchSize = true, size
	case *HashAggNode:
		x.Batch, x.BatchSize = true, size
	case *LimitNode:
		x.Batch, x.BatchSize = true, size
	case *SortNode:
		x.Batch, x.BatchSize = true, size
	case *TopNNode:
		x.Batch, x.BatchSize = true, size
	case *HashJoinNode:
		x.Batch, x.BatchSize = true, size
	}
	return n
}

// newSort wraps child in a SortNode with an n·log n cost term.
func (p *Planner) newSort(child Node, layout *Layout, keys []exec.SortKey) Node {
	n := math.Max(child.Rows(), 1)
	sortCost := child.Cost() + n*math.Log2(n+1)*p.Cfg.CPUOperatorCost*2 + n*p.Cfg.CPUTupleCost
	return p.batchify(&SortNode{
		baseNode: baseNode{layout: layout, rows: child.Rows(), cost: sortCost},
		Child:    child, Keys: keys,
	})
}
