package serve

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"jrpm/internal/codec"
	"jrpm/internal/core"
	"jrpm/internal/hydra"
)

// TestTierMetricsSumPhases pins the jrpm_tier_* counters on /metrics: after
// two real jobs, each counter is the matching hydra.TierStats field summed
// over both results' seq, profile and TLS phases, demotions per reason.
func TestTierMetricsSumPhases(t *testing.T) {
	s := newTestServer(t, nil)
	var sum hydra.TierStats
	for _, w := range []string{"BitOps", "Huffman"} {
		v, err := s.Submit(JobSpec{Workload: w})
		if err != nil {
			t.Fatal(err)
		}
		if v = waitDone(t, s, v.ID); v.Status != StatusDone {
			t.Fatalf("%s: status %s", w, v.Status)
		}
		b, err := s.ResultBytes(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		res, err := codec.DecodeResult(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*core.Phase{&res.Seq, &res.Profile, &res.TLS} {
			st := &p.Tier
			sum.Promotions += st.Promotions
			sum.BlocksCompiled += st.BlocksCompiled
			sum.CacheHits += st.CacheHits
			sum.CacheMisses += st.CacheMisses
			sum.Linked += st.Linked
			sum.InterpSteps += st.InterpSteps
			sum.SpecStretches += st.SpecStretches
			sum.SpecStretchInstrs += st.SpecStretchInstrs
			sum.SpecSleeps += st.SpecSleeps
			sum.SpecRewinds += st.SpecRewinds
			for r := range sum.Demote {
				sum.Demote[r] += st.Demote[r]
			}
		}
	}
	if sum.Promotions == 0 || sum.SpecStretches == 0 {
		t.Fatalf("the jobs never engaged the block engine and the speculative scheduler: %+v", sum)
	}
	want := map[string]int64{
		"jrpm_tier_promotions_total":                sum.Promotions,
		"jrpm_tier_blocks_compiled_total":           sum.BlocksCompiled,
		"jrpm_tier_cache_hits_total":                sum.CacheHits,
		"jrpm_tier_cache_misses_total":              sum.CacheMisses,
		"jrpm_tier_links_total":                     sum.Linked,
		"jrpm_tier_interp_steps_total":              sum.InterpSteps,
		"jrpm_tier_spec_stretches_total":            sum.SpecStretches,
		"jrpm_tier_spec_stretch_instructions_total": sum.SpecStretchInstrs,
		"jrpm_tier_spec_sleeps_total":               sum.SpecSleeps,
		"jrpm_tier_spec_rewinds_total":              sum.SpecRewinds,
	}
	for r := hydra.DemoteReason(0); r < hydra.NumDemoteReasons; r++ {
		if v := sum.Demote[r]; v != 0 {
			want[fmt.Sprintf("jrpm_tier_demotions_total{reason=%q}", r)] = v
		}
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	got := map[string]int64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, "jrpm_tier_") {
			continue
		}
		name, val, _ := strings.Cut(line, " ")
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		got[name] = n
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/metrics tier counters\n got %v\nwant %v", got, want)
	}
}
