package main

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
	"github.com/sinewdata/sinew/internal/twittergen"
)

// The tweet workloads share one collection, one set of materialized keys
// and one read mix.
const (
	tweetTable = "tweets"
	tweetLang  = "ja"
	topN       = 10
)

var tweetMaterialized = []string{"user.id", "user.lang", "retweet_count"}

// The read mix: a filter count on a materialized nested key, a Top-N, a
// GROUP BY, and a point lookup on a virtual key whose text changes with
// every call, so it misses the plan cache.
var tweetClasses = []string{"filter", "topn", "group", "point"}

func tweetSQL(class int, k int64) string {
	switch class {
	case 0:
		return fmt.Sprintf(`SELECT COUNT(*) FROM %s WHERE "user.lang" = '%s'`, tweetTable, tweetLang)
	case 1:
		return fmt.Sprintf(`SELECT id, retweet_count FROM %s ORDER BY retweet_count DESC LIMIT %d`, tweetTable, topN)
	case 2:
		return fmt.Sprintf(`SELECT "user.lang", COUNT(*) FROM %s GROUP BY "user.lang"`, tweetTable)
	default:
		return fmt.Sprintf(`SELECT "user.id" FROM %s WHERE id_str = 't%d'`, tweetTable, k)
	}
}

// tweetFacts is the oracle: what each generated tweet holds, with running
// per-language counts, so a read against any prefix of the loaded tweets
// can be checked.
type tweetFacts struct {
	userID, retweets []int64
	langs            []string
	// langCum[l][k] counts tweets with language langs[l] among the first k.
	langCum [][]int32
}

func newTweetFacts(docs []*jsonx.Doc) *tweetFacts {
	f := &tweetFacts{userID: make([]int64, len(docs)), retweets: make([]int64, len(docs))}
	langIdx := map[string]int{}
	lang := make([]int, len(docs))
	for i, d := range docs {
		u, _ := d.Get("user")
		id, _ := u.Obj.Get("id")
		l, _ := u.Obj.Get("lang")
		rt, _ := d.Get("retweet_count")
		f.userID[i], f.retweets[i] = id.I, rt.I
		if _, ok := langIdx[l.S]; !ok {
			langIdx[l.S] = len(f.langs)
			f.langs = append(f.langs, l.S)
		}
		lang[i] = langIdx[l.S]
	}
	f.langCum = make([][]int32, len(f.langs))
	for l := range f.langCum {
		cum := make([]int32, len(docs)+1)
		for i, li := range lang {
			cum[i+1] = cum[i]
			if li == l {
				cum[i+1]++
			}
		}
		f.langCum[l] = cum
	}
	return f
}

func (f *tweetFacts) langCount(lang string, k int) (int64, bool) {
	for l, s := range f.langs {
		if s == lang {
			return int64(f.langCum[l][k]), true
		}
	}
	return 0, false
}

// topValues returns the topN largest retweet counts among the first k
// tweets, in descending order.
func (f *tweetFacts) topValues(k int) []int64 {
	top := make([]int64, 0, topN+1)
	for _, v := range f.retweets[:k] {
		if len(top) == topN && v <= top[topN-1] {
			continue
		}
		i := sort.Search(len(top), func(i int) bool { return top[i] < v })
		top = append(top[:i], append([]int64{v}, top[i:]...)...)
		if len(top) > topN {
			top = top[:topN]
		}
	}
	return top
}

// check verifies one read of the given class against the tweets visible to
// it: at least the first lo and at most the first hi tweets (a reader
// beside a writer sees a snapshot somewhere in between). rows are the
// result rows as int64 or string cells.
func (f *tweetFacts) check(class int, k int64, lo, hi int, rows [][]any) error {
	bounds := func(what string, got int64, a, b int64) error {
		if got < a || got > b {
			return fmt.Errorf("%s: %s = %d, want %d..%d", tweetClasses[class], what, got, a, b)
		}
		return nil
	}
	switch class {
	case 0:
		if len(rows) != 1 || len(rows[0]) != 1 {
			return fmt.Errorf("filter: %d rows", len(rows))
		}
		a, _ := f.langCount(tweetLang, lo)
		b, _ := f.langCount(tweetLang, hi)
		return bounds("count", asInt(rows[0][0]), a, b)
	case 1:
		a, b := f.topValues(lo), f.topValues(hi)
		if len(rows) != len(b) {
			return fmt.Errorf("topn: %d rows, want %d", len(rows), len(b))
		}
		for i, r := range rows {
			id, rt := asInt(r[0]), asInt(r[1])
			if id < 0 || id >= int64(hi) || f.retweets[id] != rt {
				return fmt.Errorf("topn: row %d is tweet %d with %d retweets", i, id, rt)
			}
			if err := bounds("value", rt, a[i], b[i]); err != nil {
				return err
			}
		}
		return nil
	case 2:
		got := map[string]int64{}
		for _, r := range rows {
			lang, _ := r[0].(string)
			got[lang] = asInt(r[1])
		}
		for l, lang := range f.langs {
			c, ok := got[lang]
			delete(got, lang)
			if !ok && f.langCum[l][lo] > 0 {
				return fmt.Errorf("group: %q is missing", lang)
			}
			if err := bounds(lang, c, int64(f.langCum[l][lo]), int64(f.langCum[l][hi])); ok && err != nil {
				return err
			}
		}
		if len(got) > 0 {
			return fmt.Errorf("group: unexpected groups %v", got)
		}
		return nil
	default:
		if len(rows) != 1 || len(rows[0]) != 1 || asInt(rows[0][0]) != f.userID[k] {
			return fmt.Errorf("point t%d: got %v, want user.id %d", k, rows, f.userID[k])
		}
		return nil
	}
}

// cells converts in-process result rows to the cell values check reads.
func cells(rows []storage.Row) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = make([]any, len(r))
		for j, d := range r {
			switch {
			case d.IsNull():
			case d.Typ == types.Int:
				out[i][j] = d.I
			case d.Typ == types.Text:
				out[i][j] = d.S
			default:
				out[i][j] = d.String()
			}
		}
	}
	return out
}

// asInt reads an integer cell, whether it came from a Datum or from JSON.
func asInt(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case float64:
		return int64(x)
	}
	return -1
}

// generateTweets returns n tweets for the seed and the oracle over them.
func generateTweets(n int, seed int64) ([]*jsonx.Doc, *tweetFacts) {
	docs := twittergen.GenerateTweets(n, seed, twittergen.DefaultConfig(n))
	return docs, newTweetFacts(docs)
}

// pointKeys draws the point-lookup tweet numbers of a run from the seed.
func pointKeys(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x7ee7)) }
