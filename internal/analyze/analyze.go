// Package analyze is kfvet: a codebase-aware static analysis suite for
// the concurrency and invariant contracts `go vet` and the race
// detector cannot check before code runs. It parses and type-checks the
// whole module on the stdlib go/ast + go/types toolchain (following the
// hand-written internal/promlint precedent — no external analysis
// framework) and runs six analyzers. Two are intraprocedural:
//
//   - locksafe: every Lock() is released on all return paths (paired or
//     deferred), no blocking operation runs while a declared hot mutex
//     is held, and nested acquisitions respect the lock-order DAG
//     (engine → policy → index → entry → store → disk → wal), making
//     intra-function deadlocks impossible by construction.
//   - errlint: no discarded error from Write/Sync/Close in the
//     durability-bearing packages (wal, disk, engine) — an unchecked
//     Close is a silent torn segment.
//
// Four are interprocedural and annotation-driven, built on a
// module-wide function index and static call graph (module.go):
//
//   - allocfree: `//kfvet:noalloc` functions contain no allocating
//     construct and call only allocation-free callees, verified
//     transitively; `whennil` restricts the contract to the
//     nil-receiver disabled path (trace probes).
//   - failpointcov: the failpoint catalog and the fallible I/O surface
//     of wal/disk/engine stay in lockstep — every declared site is
//     evaluated, every evaluation uses a declared constant, and every
//     consumed-error I/O call shares a function with a failpoint.
//   - lockorder-infer: locksafe's DAG extended with call-graph-
//     propagated acquisition sets, catching A→f()→B inversions that
//     thread any number of calls.
//   - seqlockcheck: the flight recorder's invalidate→fill→publish
//     writer and load→copy→recheck reader shapes, enforced on every
//     function that touches a slot (`//kfvet:seqlock writer|reader`).
//
// There is no suppression comment: a false positive is fixed in the
// analyzer or in Config. kfvet runs as a package test (TestModuleClean)
// and as the cmd/kfvet binary.
package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	// Analyzer names the analyzer that produced the finding.
	Analyzer string
	// Pos locates the offending code.
	Pos token.Position
	// Message describes the violation.
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Config declares the codebase-specific knowledge the analyzers check
// against: the lock-order DAG, the hot locks that must never wrap a
// blocking operation, and the packages where discarded durability
// errors are findings.
type Config struct {
	// LockRank maps a lock identity ("pkgpath.Type.field" for struct
	// fields, "pkgpath.var" for package-level mutexes) to its level in
	// the lock-order DAG. While a ranked lock is held, only strictly
	// higher-ranked locks may be acquired; equal or lower acquisitions
	// are order violations (same-rank covers the two-shards case).
	// Unranked locks are exempt from ordering.
	LockRank map[string]int
	// NoBlockLocks are the hot lock identities under which blocking
	// operations — channel sends/receives, select, file I/O, policy
	// callback invocations — are forbidden.
	NoBlockLocks map[string]bool
	// BlockingRecvTypes are named types ("os.File") whose method calls
	// count as blocking I/O.
	BlockingRecvTypes map[string]bool
	// BlockingFuncs are package-level functions ("os.WriteFile",
	// "time.Sleep") that count as blocking.
	BlockingFuncs map[string]bool
	// CallbackIfaces are interface types ("kflushing/internal/policy.Policy")
	// whose method invocations count as blocking: callbacks run
	// arbitrary user code and must never execute under a hot lock.
	CallbackIfaces map[string]bool
	// ErrlintPkgs are the import paths where errlint applies.
	ErrlintPkgs map[string]bool
	// ErrlintMethods are the method names whose discarded error returns
	// errlint reports.
	ErrlintMethods map[string]bool

	// --- kfvet v2: interprocedural analyzers ---

	// NoallocAllowedPkgs are import paths every function of which is an
	// allowed callee inside `//kfvet:noalloc` bodies (sync, sync/atomic:
	// runtime-managed, no heap traffic in steady state).
	NoallocAllowedPkgs map[string]bool
	// NoallocAllowedFuncs are individual allowed callees by funcKey
	// ("time.Since") — vetted non-allocating stdlib calls.
	NoallocAllowedFuncs map[string]bool
	// NoallocPoolFuncs are the pool capacity suppliers (SlicePool.Get,
	// SlicePool.Grow): calls are allowed, and an append whose
	// destination was assigned from one is pool-fed, not a finding.
	NoallocPoolFuncs map[string]bool
	// NoallocExemptCallees are further pool-API callees (Put, recycler
	// methods) allowed inside noalloc bodies; the pool is the contract
	// boundary and allocates internally by design.
	NoallocExemptCallees map[string]bool

	// FailpointEvalFuncs are the failpoint evaluation entry-points by
	// funcKey; their first argument is a site name.
	FailpointEvalFuncs map[string]bool
	// FailpointSitePkg is the import path of the failpoint catalog:
	// its slash-bearing string constants are the declared sites.
	FailpointSitePkg string
	// FailpointCovPkgs are the packages where every consumed-error
	// fallible I/O call must share a function with a failpoint.
	FailpointCovPkgs map[string]bool
	// FallibleIOMethods are fallible I/O methods by "pkg.Type.Method".
	FallibleIOMethods map[string]bool
	// FallibleIOFuncs are fallible I/O package functions by "pkg.Func".
	FallibleIOFuncs map[string]bool

	// SeqlockSlotTypes maps a seqlock slot struct ("pkg.slot") to its
	// sequence field name; seqlockcheck closes these types' fields to
	// annotated writers/readers.
	SeqlockSlotTypes map[string]string
}

// DefaultConfig returns the declared invariants of this codebase.
//
// The lock-order DAG (acquire downward only):
//
//	10 engine.Engine.flushMu
//	11 engine.Stream.reclaimMu (the stream's reclaim target; taken at
//	   the end of a flush cycle, asks the log inside, and only tries
//	   other members' flushMu under it, never waits for one)
//	12 engine.flightGroup.mu
//	13 engine.flushPipeline.mu (release ordering behind the queue; taken
//	   under flushMu by the flushing goroutine, alone by the worker)
//	15 policy.LRU.mu / policy.FIFO.mu
//	20 index.Index.overMu
//	22 index.shard.mu
//	30 index.Entry.mu
//	31 index.departures.mu (the departure record's publishers; a dying
//	   entry publishes under its Entry.mu, takes no other lock)
//	35 alloc.SlicePool.mu (posting-array pool; taken under Entry.mu)
//	36 alloc.Recycler.mu (record recycler; leaf)
//	40 store.shard.mu
//	50 policy.VictimBuffer.mu
//	57 wal.Log.rotMu (rotations; creates the next file outside mu)
//	58 wal.Log.sealMu (seals and frame-index writes; the files a seal
//	   drains or lets go are reported to the disk.LogSet under it)
//	59 disk.Tier.compactMu (one compaction pass at a time)
//	60 disk.Tier.flushMu
//	61 disk.Tier.manifestMu (manifest commits; takes Tier.mu inside)
//	62 disk.Tier.mu
//	63 disk.LogSet.mu (the log files' registry shared by every tier over
//	   one log; opens a file under it, takes no other lock)
//	64 disk.cacheShard.mu
//	70 wal.Log.mu (appends, rotation and the claims table; file I/O runs
//	   under it by design, so it is ranked but not a no-block lock)
func DefaultConfig() Config {
	return Config{
		LockRank: map[string]int{
			"kflushing/internal/engine.Engine.flushMu":   10,
			"kflushing/internal/engine.flightGroup.mu":   12,
			"kflushing/internal/engine.flushPipeline.mu": 13,
			"kflushing/internal/engine.Stream.reclaimMu": 11,
			"kflushing/internal/policy.LRU.mu":           15,
			"kflushing/internal/policy.FIFO.mu":          15,
			"kflushing/internal/index.Index.overMu":      20,
			"kflushing/internal/index.shard.mu":          22,
			"kflushing/internal/index.Entry.mu":          30,
			"kflushing/internal/index.departures.mu":     31,
			"kflushing/internal/alloc.SlicePool.mu":      35,
			"kflushing/internal/alloc.Recycler.mu":       36,
			"kflushing/internal/store.shard.mu":          40,
			"kflushing/internal/policy.VictimBuffer.mu":  50,
			"kflushing/internal/disk.Tier.compactMu":     59,
			"kflushing/internal/disk.Tier.flushMu":       60,
			"kflushing/internal/disk.Tier.manifestMu":    61,
			"kflushing/internal/disk.Tier.mu":            62,
			"kflushing/internal/disk.LogSet.mu":          63,
			"kflushing/internal/disk.cacheShard.mu":      64,
			"kflushing/internal/wal.Log.rotMu":           57,
			"kflushing/internal/wal.Log.sealMu":          58,
			"kflushing/internal/wal.Log.mu":              70,
		},
		NoBlockLocks: map[string]bool{
			"kflushing/internal/index.Index.overMu":    true,
			"kflushing/internal/index.shard.mu":        true,
			"kflushing/internal/index.Entry.mu":        true,
			"kflushing/internal/index.departures.mu":   true,
			"kflushing/internal/alloc.SlicePool.mu":    true,
			"kflushing/internal/alloc.Recycler.mu":     true,
			"kflushing/internal/store.shard.mu":        true,
			"kflushing/internal/engine.flightGroup.mu": true,
		},
		BlockingRecvTypes: map[string]bool{
			"os.File": true,
		},
		BlockingFuncs: map[string]bool{
			"os.Open": true, "os.OpenFile": true, "os.Create": true,
			"os.CreateTemp": true, "os.ReadFile": true, "os.WriteFile": true,
			"os.Remove": true, "os.RemoveAll": true, "os.Rename": true,
			"os.MkdirAll": true, "os.Stat": true,
			"time.Sleep": true,
		},
		CallbackIfaces: map[string]bool{
			"kflushing/internal/policy.Policy": true,
		},
		ErrlintPkgs: map[string]bool{
			"kflushing/internal/wal":    true,
			"kflushing/internal/disk":   true,
			"kflushing/internal/engine": true,
		},
		ErrlintMethods: map[string]bool{
			"Write": true, "WriteString": true, "Sync": true, "Close": true,
		},
		NoallocAllowedPkgs: map[string]bool{
			"sync": true, "sync/atomic": true,
		},
		NoallocAllowedFuncs: map[string]bool{
			"time.Since":                true,
			"time.Duration.Nanoseconds": true,
			"math.Float64bits":          true,
		},
		NoallocPoolFuncs: map[string]bool{
			"kflushing/internal/alloc.SlicePool.Get":  true,
			"kflushing/internal/alloc.SlicePool.Grow": true,
		},
		NoallocExemptCallees: map[string]bool{
			"kflushing/internal/alloc.SlicePool.Put":   true,
			"kflushing/internal/alloc.ShrinkThreshold": true,
			"kflushing/internal/alloc.Recycler.Pin":    true,
			"kflushing/internal/alloc.Recycler.Unpin":  true,
		},
		FailpointEvalFuncs: map[string]bool{
			"kflushing/internal/failpoint.Eval":      true,
			"kflushing/internal/failpoint.EvalWrite": true,
		},
		FailpointSitePkg: "kflushing/internal/failpoint",
		FailpointCovPkgs: map[string]bool{
			"kflushing/internal/wal":    true,
			"kflushing/internal/disk":   true,
			"kflushing/internal/engine": true,
		},
		FallibleIOMethods: map[string]bool{
			"os.File.Write": true, "os.File.WriteString": true, "os.File.WriteAt": true,
			"os.File.Sync": true, "os.File.Truncate": true,
		},
		FallibleIOFuncs: map[string]bool{
			"os.Rename": true, "os.Remove": true, "os.RemoveAll": true,
			"os.Truncate": true, "os.MkdirAll": true, "os.Create": true,
			"os.CreateTemp": true, "os.WriteFile": true,
		},
		SeqlockSlotTypes: map[string]string{
			"kflushing/internal/blackbox.slot": "seq",
		},
	}
}

// FixtureConfig returns the config the analyzer fixtures are written
// against: rank/hot-lock/errlint declarations keyed to the fixture
// package types instead of the real module's.
func FixtureConfig(pkgPath string) Config {
	cfg := DefaultConfig()
	cfg.LockRank = map[string]int{
		pkgPath + ".Engine.mu": 10,
		pkgPath + ".Index.mu":  20,
		pkgPath + ".Entry.mu":  30,
		pkgPath + ".Store.mu":  40,
	}
	cfg.NoBlockLocks = map[string]bool{
		pkgPath + ".Index.mu": true,
		pkgPath + ".Entry.mu": true,
	}
	cfg.CallbackIfaces = map[string]bool{
		pkgPath + ".Policy": true,
	}
	cfg.ErrlintPkgs = map[string]bool{pkgPath: true}
	// Interprocedural analyzers, keyed to the fixture package's own
	// types. The annotation-driven passes (allocfree, lockorder-infer)
	// are safe to arm everywhere; the type/package-scoped ones
	// (failpointcov, seqlockcheck) arm only in their own fixture so e.g.
	// the locksafe fixture's deliberate os.File traffic doesn't trip
	// failpoint coverage.
	cfg.NoallocPoolFuncs = map[string]bool{
		pkgPath + ".Pool.Get":  true,
		pkgPath + ".Pool.Grow": true,
	}
	cfg.NoallocExemptCallees = map[string]bool{
		pkgPath + ".Pool.Put": true,
	}
	cfg.FailpointSitePkg = ""
	cfg.FailpointEvalFuncs = nil
	cfg.FailpointCovPkgs = nil
	cfg.SeqlockSlotTypes = nil
	switch pkgPath {
	case "failpointcov":
		cfg.FailpointSitePkg = pkgPath
		cfg.FailpointEvalFuncs = map[string]bool{
			pkgPath + ".Eval":      true,
			pkgPath + ".EvalWrite": true,
		}
		cfg.FailpointCovPkgs = map[string]bool{pkgPath: true}
	case "seqlockcheck":
		cfg.SeqlockSlotTypes = map[string]string{pkgPath + ".slot": "seq"}
	}
	return cfg
}

// pass carries the shared state of one analyzer run over one package.
type pass struct {
	pkg      *Package
	cfg      Config
	findings *[]Finding
	analyzer string
}

// report records one finding.
func (p *pass) report(pos token.Pos, format string, args ...interface{}) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer,
		Pos:      p.pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes every analyzer over pkgs and returns the findings
// sorted by position.
func Run(pkgs []*Package, cfg Config) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		runLocksafe(&pass{pkg: pkg, cfg: cfg, findings: &findings, analyzer: "locksafe"})
		runErrlint(&pass{pkg: pkg, cfg: cfg, findings: &findings, analyzer: "errlint"})
	}
	// The interprocedural analyzers share one module-wide function index
	// and annotation table built over every package of the load, so
	// cross-package call chains resolve by object identity.
	m := buildModule(pkgs, cfg, &findings)
	runAllocFree(m)
	runFailpointCov(m)
	runLockInfer(m)
	runSeqlockCheck(m)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// funcBodies yields every function or method body in the package along
// with its declaration, including function literals nested inside.
// Function literals get a nil decl.
func funcBodies(pkg *Package, visit func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd, fd.Body)
			}
		}
	}
}
