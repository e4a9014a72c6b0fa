package patterns

import (
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/sweep"
)

func TestKindsRegistered(t *testing.T) {
	for _, kind := range []sweep.Kind{KindBarrier, KindRCU, KindCombLock} {
		s, ok := sweep.Lookup(string(kind))
		if !ok {
			t.Fatalf("kind %q not registered", kind)
		}
		if !s.GridAxes() {
			t.Errorf("kind %q must support the policy grid", kind)
		}
		if d := sweep.Describe(string(kind)); d == "" {
			t.Errorf("kind %q has no description", kind)
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	topo := noc.Small()
	s, _ := sweep.Lookup(string(KindBarrier))
	j, err := s.Normalize(sweep.Job{Kind: KindBarrier, Topo: "small"}, topo)
	if err != nil {
		t.Fatal(err)
	}
	if j.Warmup != DefaultPatternWarmup || j.Measure != DefaultPatternMeasure {
		t.Errorf("windows = %d/%d, want %d/%d", j.Warmup, j.Measure,
			DefaultPatternWarmup, DefaultPatternMeasure)
	}
	if want := []int{2, 4, 8, 16}; len(j.Bins) != len(want) {
		t.Errorf("default counts = %v, want %v", j.Bins, want)
	}
	// Normalize canonicalizes the param strings, so a job spelling out
	// the defaults shares cache entries with a job leaving them blank.
	if j.Params[ParamWait] != "spin,backoff,mwait" {
		t.Errorf("canonical wait = %q", j.Params[ParamWait])
	}
	if j.Params[ParamVariant] != "central,tree,butterfly" {
		t.Errorf("canonical variant = %q", j.Params[ParamVariant])
	}
	j2, err := s.Normalize(sweep.Job{Kind: KindBarrier, Topo: "small",
		Params: map[string]string{ParamWait: " spin , backoff , mwait "}}, topo)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Params[ParamWait] != j.Params[ParamWait] {
		t.Errorf("spaced wait list canonicalized to %q, want %q",
			j2.Params[ParamWait], j.Params[ParamWait])
	}
}

// TestSharedParamsAcrossKinds is the regression test for one -params
// map handed to several pattern jobs: barrier's canonical variant must
// not leak into the caller's map, where rcu would reject it.
func TestSharedParamsAcrossKinds(t *testing.T) {
	params := map[string]string{ParamWait: "mwait"}
	for _, kind := range []sweep.Kind{KindBarrier, KindRCU, KindCombLock} {
		j := sweep.Job{Kind: kind, Topo: "small", Params: params}
		if _, err := j.Normalize(); err != nil {
			t.Fatalf("%s with the shared params map: %v", kind, err)
		}
	}
	if len(params) != 1 || params[ParamWait] != "mwait" {
		t.Fatalf("Normalize wrote into the caller's params map: %v", params)
	}
}

func TestNormalizeRejects(t *testing.T) {
	topo := noc.Small()
	cases := []struct {
		name string
		job  sweep.Job
		want string
	}{
		{"unknown param", sweep.Job{Kind: KindBarrier,
			Params: map[string]string{"waitt": "spin"}}, "unknown param"},
		{"bad wait kind", sweep.Job{Kind: KindBarrier,
			Params: map[string]string{ParamWait: "sleep"}}, "unknown wait kind"},
		{"duplicate wait kind", sweep.Job{Kind: KindBarrier,
			Params: map[string]string{ParamWait: "spin,spin"}}, "duplicate wait kind"},
		{"bad variant", sweep.Job{Kind: KindBarrier,
			Params: map[string]string{ParamVariant: "star"}}, "unknown barrier variant"},
		{"tree needs pow2", sweep.Job{Kind: KindBarrier, Bins: []int{3}}, "power of two"},
		{"count above cores", sweep.Job{Kind: KindBarrier, Bins: []int{32}}, "out of range"},
		{"rcu needs a reader", sweep.Job{Kind: KindRCU, Bins: []int{1}}, "out of range"},
		{"rcu unknown param", sweep.Job{Kind: KindRCU,
			Params: map[string]string{ParamVariant: "central"}}, "unknown param"},
		{"bad maxcombine", sweep.Job{Kind: KindCombLock,
			Params: map[string]string{ParamMaxCombine: "0"}}, "positive integer"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, ok := sweep.Lookup(string(c.job.Kind))
			if !ok {
				t.Fatalf("kind %q not registered", c.job.Kind)
			}
			_, err := s.Normalize(c.job, topo)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestCentralAllowsNonPow2 pins that the power-of-two restriction only
// applies when a tree or butterfly variant is selected.
func TestCentralAllowsNonPow2(t *testing.T) {
	s, _ := sweep.Lookup(string(KindBarrier))
	_, err := s.Normalize(sweep.Job{Kind: KindBarrier, Bins: []int{3},
		Params: map[string]string{ParamVariant: "central"}}, noc.Small())
	if err != nil {
		t.Errorf("central-only barrier with 3 cores rejected: %v", err)
	}
}

// TestCurveSetShape pins the (variant × wait) curve expansion and the
// curve cache keys' policy resolution.
func TestCurveSetShape(t *testing.T) {
	topo := noc.Small()
	s, _ := sweep.Lookup(string(KindBarrier))
	j, err := s.Normalize(sweep.Job{Kind: KindBarrier, Topo: "small",
		Params: map[string]string{ParamWait: "mwait", ParamVariant: "tree,butterfly"}}, topo)
	if err != nil {
		t.Fatal(err)
	}
	curves, err := s.Curves(topo, j)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range curves {
		names = append(names, c.Name)
	}
	if got, want := strings.Join(names, " "), "tree-mwait butterfly-mwait"; got != want {
		t.Errorf("curves = %q, want %q", got, want)
	}
	// A grid coordinate restating the baseline policy must key
	// identically to the grid-free coordinate: same simulation.
	colibri := "colibri"
	plain := "plain"
	free := curves[0].Key(sweep.GridCoord{}, 0)
	if got := curves[0].Key(sweep.GridCoord{Policy: &colibri}, 0); got != free {
		t.Errorf("restated baseline forks the cache key: %q vs %q", got, free)
	}
	if got := curves[0].Key(sweep.GridCoord{Policy: &plain}, 0); got == free {
		t.Errorf("policy axis does not enter the cache key: %q", got)
	}
}
