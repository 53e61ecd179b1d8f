//go:build !failpoint

package failpoint

// Enabled reports whether this binary was built with fault injection
// compiled in. In the default build it is false and every function
// below is an inlinable no-op: the compiler reduces each call site to
// nothing, so production binaries carry zero overhead (verified in
// EXPERIMENTS.md "Early micro-benchmarks").
const Enabled = false

// ErrInjected is never returned in the disabled build; it exists so
// errors.Is(err, ErrInjected) compiles untagged.
var ErrInjected = errInjected{}

type errInjected struct{}

func (errInjected) Error() string { return "failpoint: injected error" }

// Eval is a no-op in the disabled build.
func Eval(site string) error { return nil }

// EvalWrite is a no-op in the disabled build: the buffer passes through.
func EvalWrite(site string, buf []byte) ([]byte, error) { return buf, nil }

// NoteFile is a no-op in the disabled build.
func NoteFile(op FileOp, path string) {}

// Enable reports an error in the disabled build so a test that forgot
// `-tags failpoint` fails loudly instead of silently testing nothing.
func Enable(site, spec string) error { return buildErr() }

// EnableFromSpec reports an error in the disabled build.
func EnableFromSpec(spec string) error { return buildErr() }

// Disable is a no-op in the disabled build.
func Disable(site string) {}

// DisableAll is a no-op in the disabled build.
func DisableAll() {}

// Hits always reports zero in the disabled build.
func Hits(site string) int64 { return 0 }

func buildErr() error {
	return errNotBuilt{}
}

type errNotBuilt struct{}

func (errNotBuilt) Error() string {
	return "failpoint: binary built without -tags failpoint"
}
