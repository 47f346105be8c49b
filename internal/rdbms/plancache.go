package rdbms

import (
	"container/list"
	"sync"
	"sync/atomic"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/plan"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
)

// The prepared-plan cache: repeated statements skip parsing, rewriting and
// planning entirely. Entries are keyed by the statement text, the
// plan-shaping session flags, and the catalog epoch — a counter bumped by
// every DDL, ANALYZE, and (via BumpCatalogEpoch) any upper-layer change
// that alters what the same SQL text should compile to, such as a
// materializer pass moving columns. An epoch bump therefore invalidates
// every cached plan at once without enumerating dependencies.
//
// Cached *plan.SelectPlan values are safe to re-execute and to execute
// concurrently: Open builds fresh iterator state per execution, and fused
// multi-extract kernels are instantiated per Open by their factory.

// planCacheCap bounds the number of retained plans (LRU eviction).
const planCacheCap = 256

type planKey struct {
	sql   string
	flags string
	epoch uint64
}

type cachedPlan struct {
	sp     *plan.SelectPlan
	tables []string
	key    planKey // for eviction bookkeeping
}

// PlanCacheStats is a snapshot of the cache counters, surfaced through the
// sinew_stats() UDF and the CLI.
type PlanCacheStats struct {
	Hits          uint64
	Misses        uint64
	Entries       int
	Invalidations uint64
	Epoch         uint64
}

type planCache struct {
	mu      sync.Mutex
	entries map[planKey]*list.Element
	lru     *list.List // front = most recent; values are *cachedPlan
	hits    atomic.Uint64
	misses  atomic.Uint64
	invals  atomic.Uint64
}

func newPlanCache() *planCache {
	return &planCache{
		entries: make(map[planKey]*list.Element),
		lru:     list.New(),
	}
}

func (c *planCache) get(key planKey) (*cachedPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cachedPlan), true
}

func (c *planCache) put(key planKey, cp *cachedPlan) {
	cp.key = key
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = cp
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(cp)
	for c.lru.Len() > planCacheCap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cachedPlan).key)
	}
}

func (c *planCache) remove(key planKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.Remove(el)
		delete(c.entries, key)
	}
}

// clear drops every entry; called on epoch bumps so stale-epoch plans do
// not linger until LRU eviction.
func (c *planCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) > 0 {
		c.entries = make(map[planKey]*list.Element)
		c.lru.Init()
	}
	c.invals.Add(1)
}

func (c *planCache) stats(epoch uint64) PlanCacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return PlanCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Entries:       n,
		Invalidations: c.invals.Load(),
		Epoch:         epoch,
	}
}

// BumpCatalogEpoch invalidates every cached plan. The rdbms layer calls it
// on DDL/TRUNCATE/ANALYZE; upper layers (Sinew core) call it whenever the
// logical-to-physical mapping changes — schema analysis, a materializer
// pass, or document loads that mint new attributes — since those change
// what the rewriter emits for the same statement text.
func (db *DB) BumpCatalogEpoch() {
	db.epoch.Add(1)
	db.plans.clear()
}

// CatalogEpoch reports the current epoch (tests pin invalidation with it).
func (db *DB) CatalogEpoch() uint64 { return db.epoch.Load() }

// PlanCacheStats snapshots the prepared-plan cache counters.
func (db *DB) PlanCacheStats() PlanCacheStats {
	return db.plans.stats(db.epoch.Load())
}

// flagsKey folds the plan-shaping session settings into the cache key, so
// SET enable_batch / batch_size / parallel_scan_min_pages /
// max_parallel_workers / enable_page_skip force a re-plan
// rather than replaying a plan built under different settings.
func (db *DB) flagsKey() string {
	db.cfgMu.Lock()
	cfg := *db.cfg
	db.cfgMu.Unlock()
	// Hand-rolled to keep the hot path free of fmt.
	b := make([]byte, 0, 40)
	if cfg.EnableBatch {
		b = append(b, "b1,"...)
	} else {
		b = append(b, "b0,"...)
	}
	b = appendUint(b, uint64(cfg.BatchSize))
	b = append(b, ',')
	b = appendUint(b, uint64(cfg.ParallelScanMinPages))
	b = append(b, ',')
	b = appendUint(b, uint64(cfg.MaxParallelWorkers))
	if cfg.EnablePageSkip {
		b = append(b, ",s1"...)
	} else {
		b = append(b, ",s0"...)
	}
	return string(b)
}

func appendUint(b []byte, v uint64) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// ExecSelectCached runs a SELECT through the prepared-plan cache. sqlText
// is the statement as the client submitted it (before any rewriting); on a
// miss, build is called to produce the planned-against AST — for Sinew that
// closure performs parse + virtual-column rewrite, which a hit skips
// entirely along with planning.
func (db *DB) ExecSelectCached(sqlText string, build func() (*sqlparse.SelectStmt, error)) (*Result, error) {
	key := planKey{sql: sqlText, flags: db.flagsKey(), epoch: db.epoch.Load()}
	if ent, ok := db.plans.get(key); ok {
		// Lock-free hit path: pin every referenced table's snapshot, then
		// re-check the epoch. DDL bumps the epoch *before* publishing
		// (storage invariant 4), so if the epoch still matches, none of the
		// snapshots pinned above can postdate a conflicting DDL.
		ec := exec.NewExecCtx()
		pinned := true
		for _, n := range ent.tables {
			t, err := db.lookup(n)
			if err != nil {
				pinned = false
				break
			}
			ec.View(t.heap)
		}
		if pinned && db.epoch.Load() == key.epoch {
			db.plans.hits.Add(1)
			rows, cerr := ent.sp.CollectCtx(ec)
			ec.Release()
			if cerr != nil {
				return nil, cerr
			}
			return &Result{Columns: ent.sp.ColumnNames, Types: ent.sp.ColumnTypes, Rows: rows}, nil
		}
		ec.Release()
		db.plans.remove(key)
	}
	db.plans.misses.Add(1)

	st, err := build()
	if err != nil {
		return nil, err
	}
	ec := exec.NewExecCtx()
	defer ec.Release()
	// Sample the epoch before planning: if a DDL lands mid-plan it bumps
	// the epoch, the entry below is cached under the stale key, and no
	// future lookup ever replays it.
	epoch := db.epoch.Load()
	p := plan.NewPlanner(snapshotCatalog{db: db, ec: ec}, db.funcs, db.planCfg())
	sp, err := p.PlanSelect(st)
	if err != nil {
		return nil, err
	}
	rows, err := sp.CollectCtx(ec)
	if err != nil {
		return nil, err
	}
	db.plans.put(planKey{sql: sqlText, flags: key.flags, epoch: epoch},
		&cachedPlan{sp: sp, tables: fromTables(st)})
	return &Result{Columns: sp.ColumnNames, Types: sp.ColumnTypes, Rows: rows}, nil
}
