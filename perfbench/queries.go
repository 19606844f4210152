package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"

	mdhf "repro"
	"repro/internal/exec"
	"repro/internal/schema"
)

// zipfS is the member skew of the dashboard generator.
const zipfS = 1.2

// memberPicker draws one member of a dimension level.
type memberPicker func(rng *rand.Rand, dim, level, card int) int

// uniformMembers draws every member with equal probability.
func uniformMembers(rng *rand.Rand, _, _, card int) int { return rng.Intn(card) }

// zipfMembers returns a picker drawing member ranks Zipf(zipfS). Time is
// ranked from the latest member backwards, so recent periods are hot;
// every other level ranks its members by a permutation fixed by seed.
func zipfMembers(star *mdhf.Star, seed int64) memberPicker {
	timeDim := star.DimIndex(schema.DimTime)
	perms := map[[2]int][]int{}
	prng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for d, dim := range star.Dims {
		for l, lvl := range dim.Levels {
			perms[[2]int{d, l}] = prng.Perm(lvl.Card)
		}
	}
	return func(rng *rand.Rand, dim, level, card int) int {
		rank := 0
		if card > 1 {
			rank = int(rand.NewZipf(rng, zipfS, 1, uint64(card-1)).Uint64())
		}
		if dim == timeDim {
			return card - 1 - rank
		}
		return perms[[2]int{dim, level}][rank]
	}
}

// genQueries draws n queries: the paper's ten query types uniformly,
// each of their members with pick. Types are drawn without replacement
// in rounds of ten (every type once per round, in random order), so the
// mix — and with it the work per query — does not vary with the seed.
// The same seed gives the same sequence.
func genQueries(star *mdhf.Star, seed int64, n int, pick memberPicker) ([]mdhf.Query, error) {
	rng := rand.New(rand.NewSource(seed))
	types := mdhf.AllQueryTypes()
	var round []int
	out := make([]mdhf.Query, n)
	for i := range out {
		if len(round) == 0 {
			round = rng.Perm(len(types))
		}
		q, err := drawQuery(star, rng, types[round[0]], pick)
		if err != nil {
			return nil, err
		}
		round = round[1:]
		out[i] = q
	}
	return out, nil
}

// drawQuery binds query type qt to members drawn with pick.
func drawQuery(star *mdhf.Star, rng *rand.Rand, qt mdhf.QueryType, pick memberPicker) (mdhf.Query, error) {
	members := make([]int, len(qt.Attrs))
	for k, a := range qt.Attrs {
		d := star.DimIndex(a.Dim)
		l := star.Dims[d].LevelIndex(a.Level)
		members[k] = pick(rng, d, l, star.Dims[d].Levels[l].Card)
	}
	return qt.Bind(star, members)
}

// genScanProbe draws n distinct 1STORE queries, stores uniform. A store
// is not a fragmentation attribute, so each of them reads every
// fragment.
func genScanProbe(star *mdhf.Star, seed int64, n int) ([]mdhf.Query, error) {
	var qt mdhf.QueryType
	for _, t := range mdhf.AllQueryTypes() {
		if t.Name == "1STORE" {
			qt = t
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var out []mdhf.Query
	seen := map[string]bool{}
	for len(out) < n {
		q, err := drawQuery(star, rng, qt, uniformMembers)
		if err != nil {
			return nil, err
		}
		if text := mdhf.FormatQuery(star, q); !seen[text] {
			seen[text] = true
			out = append(out, q)
		}
	}
	return out, nil
}

// oracle holds the scan-computed expected result of every query a
// workload issues, computed before timing starts.
type oracle struct {
	byText map[string]*mdhf.Result
}

// newOracle scans t once per distinct query of qs.
func newOracle(star *mdhf.Star, t *mdhf.FactTable, qs []mdhf.Query) (*oracle, error) {
	o := &oracle{byText: map[string]*mdhf.Result{}}
	var keys []string
	var distinct []mdhf.Query
	for _, q := range qs {
		key := mdhf.FormatQuery(star, q)
		if _, ok := o.byText[key]; !ok {
			o.byText[key] = nil
			keys = append(keys, key)
			distinct = append(distinct, q)
		}
	}
	res, err := exec.Map(context.Background(), 0, len(distinct), func(i int) (mdhf.Result, error) {
		r, err := mdhf.ScanGroupedAggregate(t, distinct[i])
		if err != nil {
			return r, fmt.Errorf("oracle for %s: %w", keys[i], err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for i, key := range keys {
		o.byText[key] = &res[i]
	}
	return o, nil
}

// expected returns the oracle results of qs in order.
func (o *oracle) expected(star *mdhf.Star, qs []mdhf.Query) []*mdhf.Result {
	out := make([]*mdhf.Result, len(qs))
	for i, q := range qs {
		out[i] = o.byText[mdhf.FormatQuery(star, q)]
	}
	return out
}

// sameResult reports whether a served result is identical to the oracle.
func sameResult(got mdhf.Result, want *mdhf.Result) bool {
	return want != nil && reflect.DeepEqual(got, *want)
}
