package main

import (
	"bufio"
	"bytes"
	"fmt"
	"time"

	"github.com/sinewdata/sinew/internal/core"
	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
)

// batchSize is the number of documents per NDJSON load batch.
const batchSize = 500

// ndjsonBatches renders docs as newline-delimited JSON in batches of size
// documents and returns the batches with their total byte count.
func ndjsonBatches(docs []*jsonx.Doc, size int) ([][]byte, int64) {
	var out [][]byte
	var total int64
	for lo := 0; lo < len(docs); lo += size {
		var b bytes.Buffer
		for _, d := range docs[lo:min(lo+size, len(docs))] {
			b.WriteString(jsonx.ObjectValue(d).String())
			b.WriteByte('\n')
		}
		total += int64(b.Len())
		out = append(out, b.Bytes())
	}
	return out, total
}

// loader loads NDJSON batches into one collection. Untraced, a batch is one
// core.DB.LoadJSONLines call. Traced, the same work is split into its two
// public calls, jsonx.ParseDocument per line and core.DB.LoadDocuments, so
// parsing and loading get separate spans.
type loader struct {
	db       *core.DB
	coll     string
	tr       *tracer
	docs     int64
	newAttrs int64
}

func (l *loader) load(batch []byte) error {
	if l.tr == nil {
		res, err := l.db.LoadJSONLines(l.coll, bytes.NewReader(batch))
		if err != nil {
			return err
		}
		l.docs += res.Documents
		l.newAttrs += int64(res.NewAttributes)
		return nil
	}
	op := l.tr.newOp()
	root := l.tr.open("bench.load_batch", op, 0)
	ps := l.tr.open("jsonx.ParseDocument", op, root.ID)
	var docs []*jsonx.Doc
	sc := bufio.NewScanner(bytes.NewReader(batch))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		d, err := jsonx.ParseDocument(sc.Bytes())
		if err != nil {
			return err
		}
		docs = append(docs, d)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	l.tr.close(ps)
	ls := l.tr.open("core.LoadDocuments", op, root.ID)
	res, err := l.db.LoadDocuments(l.coll, docs)
	if err != nil {
		return err
	}
	l.tr.close(ls)
	l.tr.close(root)
	l.docs += res.Documents
	l.newAttrs += int64(res.NewAttributes)
	return nil
}

// pass is one background pass: the materializer moves dirty columns, then
// ANALYZE refreshes statistics and freezes cold pages into segments.
type pass struct {
	moved                int64
	materialize, analyze time.Duration
}

func backgroundPass(db *core.DB, coll string, tr *tracer) (pass, error) {
	var p pass
	op := tr.newOp()
	root := tr.open("bench.background_pass", op, 0)
	t0 := time.Now()
	ms := tr.open("core.Materializer.RunOnce", op, root.ID)
	moved, err := core.NewMaterializer(db).RunOnce(coll)
	if err != nil {
		return p, fmt.Errorf("materialize: %w", err)
	}
	tr.close(ms)
	t1 := time.Now()
	as := tr.open("rdbms.Analyze", op, root.ID)
	if err := db.RDBMS().Analyze(coll); err != nil {
		return p, fmt.Errorf("analyze: %w", err)
	}
	tr.close(as)
	tr.close(root)
	p.moved, p.materialize, p.analyze = moved, t1.Sub(t0), time.Since(t1)
	return p, nil
}

// chainRead runs one SELECT through the public uncached chain — parse,
// Sinew rewrite, plan, execute under a fresh ExecCtx — with a span around
// each call, so every layer's cost is measured on every statement. It
// returns the rows and the durations of the four steps.
func chainRead(db *core.DB, sql string, tr *tracer, op, parent int64) ([]storage.Row, [4]time.Duration, error) {
	var d [4]time.Duration
	s := tr.open("sqlparse.Parse", op, parent)
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, d, err
	}
	d[0] = tr.close(s)
	s = tr.open("core.RewriteStmt", op, parent)
	rw, cleanup, err := db.RewriteStmt(stmt)
	if err != nil {
		return nil, d, err
	}
	defer cleanup()
	d[1] = tr.close(s)
	sel, ok := rw.(*sqlparse.SelectStmt)
	if !ok {
		return nil, d, fmt.Errorf("not a SELECT: %s", sql)
	}
	s = tr.open("plan.PlanSelect", op, parent)
	sp, err := db.RDBMS().PlanSelect(sel)
	if err != nil {
		return nil, d, err
	}
	d[2] = tr.close(s)
	s = tr.open("exec.CollectCtx", op, parent)
	ec := exec.NewExecCtx()
	rows, err := sp.CollectCtx(ec)
	ec.Release()
	if err != nil {
		return nil, d, err
	}
	d[3] = tr.close(s)
	return rows, d, nil
}

// chainLayers reports the mean per-statement time of each chain step from
// the spans of a traced run.
func chainLayers(l map[string]float64, spans []span) {
	st := selfTimes(spans)
	mean := func(name string, unit time.Duration) float64 {
		lt := st[name]
		if lt == nil || lt.count == 0 {
			return 0
		}
		return float64(lt.self) / float64(lt.count) / float64(unit)
	}
	l["sqlparse.parse_us"] = mean("sqlparse.Parse", time.Microsecond)
	l["core.rewrite_us"] = mean("core.RewriteStmt", time.Microsecond)
	l["plan.plan_us"] = mean("plan.PlanSelect", time.Microsecond)
	l["exec.execute_ms"] = mean("exec.CollectCtx", time.Millisecond)
}

// loadLayers reports the load path's per-document cost from the spans of a
// traced run, with the documents and new attributes the loader counted.
func loadLayers(l map[string]float64, spans []span, ld *loader) {
	if ld.docs == 0 {
		return
	}
	st := selfTimes(spans)
	perDoc := func(name string) float64 {
		if lt := st[name]; lt != nil {
			return float64(lt.self) / float64(ld.docs) / float64(time.Microsecond)
		}
		return 0
	}
	l["jsonx.parse_us_per_doc"] = perDoc("jsonx.ParseDocument")
	l["core.load_us_per_doc"] = perDoc("core.LoadDocuments")
	l["core.new_attrs"] = float64(ld.newAttrs)
	l["bench.docs_loaded"] = float64(ld.docs)
}
