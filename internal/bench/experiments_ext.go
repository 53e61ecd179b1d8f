package bench

// extPolicies is the policy set for the extensibility figures: the
// paper omits kFlushing-MK there (user queries are single-key, spatial
// AND queries are semantically invalid, so MK behaves exactly like
// kFlushing).
var extPolicies = []string{PolFIFO, PolKFlushing, PolLRU}

// extSweep is sweepTable over the reduced extensibility policy set.
func extSweep(title, note string, s Scale,
	runOne func(RunConfig) RunResult, correlated bool,
	metric func(RunResult) string) *Table {

	t := &Table{
		Title:  title,
		Note:   note,
		Header: append([]string{"memory"}, extPolicies...),
	}
	for _, budget := range s.Budgets {
		row := []string{fMiB(budget)}
		for _, pol := range extPolicies {
			rc := s.baseRun()
			rc.Policy = pol
			rc.K = 20
			rc.Budget = budget
			rc.Correlated = correlated
			row = append(row, metric(runOne(rc)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig11a regenerates Figure 11(a): k-filled spatial tiles vs memory.
func Fig11a(s Scale) *Table {
	return extSweep(
		"Figure 11(a): k-filled spatial tiles vs memory budget",
		"4mi² grid tiles, correlated spatial load, k=20",
		s, RunSpatial, true,
		func(r RunResult) string { return fInt(int64(r.Census.KFilled)) },
	)
}

// extHitRatio is the (b) panel of both extensibility figures: hit ratio
// vs memory for each policy under the uniform and the correlated load.
func extHitRatio(title string, s Scale, runOne func(RunConfig) RunResult) *Table {
	t := &Table{
		Title:  title,
		Note:   "k=20; six series: each policy under uniform and correlated loads",
		Header: []string{"memory", "fifo-uni", "kflush-uni", "lru-uni", "fifo-corr", "kflush-corr", "lru-corr"},
	}
	for _, budget := range s.Budgets {
		row := []string{fMiB(budget)}
		for _, correlated := range []bool{false, true} {
			for _, pol := range extPolicies {
				rc := s.baseRun()
				rc.Policy = pol
				rc.K = 20
				rc.Budget = budget
				rc.Correlated = correlated
				row = append(row, fPct(runOne(rc).HitRatio))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Fig11b regenerates Figure 11(b): spatial hit ratio vs memory for
// both workloads.
func Fig11b(s Scale) *Table {
	return extHitRatio("Figure 11(b): spatial hit ratio vs memory budget", s, RunSpatial)
}

// Fig12a regenerates Figure 12(a): k-filled user IDs vs memory.
func Fig12a(s Scale) *Table {
	return extSweep(
		"Figure 12(a): k-filled user IDs vs memory budget",
		"user-timeline attribute, correlated load, k=20",
		s, RunUser, true,
		func(r RunResult) string { return fInt(int64(r.Census.KFilled)) },
	)
}

// Fig12b regenerates Figure 12(b): user-timeline hit ratio vs memory
// for both workloads.
func Fig12b(s Scale) *Table {
	return extHitRatio("Figure 12(b): user-timeline hit ratio vs memory budget", s, RunUser)
}

// Experiments maps experiment IDs (DESIGN.md per-experiment index) to
// their table producers. Multi-table experiments expand to one entry
// per sub-figure.
func Experiments(s Scale) map[string]func() []*Table {
	one := func(f func(Scale) *Table) func() []*Table {
		return func() []*Table { return []*Table{f(s)} }
	}
	return map[string]func() []*Table{
		"snapshot":          one(Snapshot),
		"fig5":              one(Fig5),
		"fig7a":             one(Fig7a),
		"fig7b":             one(Fig7b),
		"fig7c":             one(Fig7c),
		"fig8":              func() []*Table { return Fig8(s) },
		"fig9":              func() []*Table { return Fig9(s) },
		"fig10a":            one(Fig10a),
		"fig10b":            one(Fig10b),
		"fig11a":            one(Fig11a),
		"fig11b":            one(Fig11b),
		"fig12a":            one(Fig12a),
		"fig12b":            one(Fig12b),
		"latency":           one(Latency),
		"ablation-phases":   one(AblationPhases),
		"ablation-selector": one(AblationSelector),
	}
}

// ExperimentOrder lists experiment IDs in presentation order for the
// "all" command.
var ExperimentOrder = []string{
	"snapshot", "fig5", "fig7a", "fig7b", "fig7c",
	"fig8", "fig9", "fig10a", "fig10b",
	"fig11a", "fig11b", "fig12a", "fig12b",
	"latency", "ablation-phases", "ablation-selector",
}
