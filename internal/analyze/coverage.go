package analyze

import "sort"

// CoverageReport summarizes the module's verified-protocol surface: how
// which functions carry each kfvet annotation and how the failpoint
// catalog lines up with the sites actually evaluated.
// TestProtocolAnnotationsPresent pins it, so a shrinking annotation
// surface or a growing catalog diff fails a test even while Run stays
// silent.
type CoverageReport struct {
	// Noalloc and Seqlock list the annotated functions by funcKey
	// ("pkgpath.Type.method"), each with its annotation argument where
	// one applies ("whennil", "writer", "reader").
	Noalloc []string
	Seqlock []string
	// Declared is the failpoint catalog; Evaluated the sites reached by
	// an Eval/EvalWrite call; Dead the difference (declared, never
	// evaluated). A non-empty Dead means runFailpointCov reports it.
	Declared  []string
	Evaluated []string
	Dead      []string
}

// Coverage computes the annotation and failpoint coverage of the loaded
// packages under cfg. It reports nothing; pair it with Run for the
// gate.
func Coverage(pkgs []*Package, cfg Config) CoverageReport {
	var sink []Finding
	m := buildModule(pkgs, cfg, &sink)
	var r CoverageReport
	for _, fi := range m.infos {
		key := funcKey(fi.fn)
		if fi.ann.noalloc {
			if fi.ann.whenNil {
				r.Noalloc = append(r.Noalloc, key+" (whennil)")
			} else {
				r.Noalloc = append(r.Noalloc, key)
			}
		}
		if fi.ann.seqlock != "" {
			r.Seqlock = append(r.Seqlock, key+" ("+fi.ann.seqlock+")")
		}
	}
	declared := declaredSites(pkgs, cfg)
	evaluated := evaluatedSites(pkgs, cfg, declared, nil)
	for site := range declared {
		r.Declared = append(r.Declared, site)
		if !evaluated[site] {
			r.Dead = append(r.Dead, site)
		}
	}
	for site := range evaluated {
		r.Evaluated = append(r.Evaluated, site)
	}
	sort.Strings(r.Noalloc)
	sort.Strings(r.Seqlock)
	sort.Strings(r.Declared)
	sort.Strings(r.Evaluated)
	sort.Strings(r.Dead)
	return r
}
