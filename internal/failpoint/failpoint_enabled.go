//go:build failpoint

package failpoint

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Enabled reports whether this binary was built with fault injection
// compiled in (`-tags failpoint`).
const Enabled = true

// ErrInjected is the base error returned by the error-family actions.
// Injected errors wrap it, so errors.Is(err, ErrInjected) identifies
// any injected failure.
var ErrInjected = errors.New("failpoint: injected error")

type kind int

const (
	kindError kind = iota
	kindErrorN
	kindErrEvery
	kindENOSPC
	kindTorn
	kindSleep
	kindPanic
	kindCrash
	kindCrashN
)

type action struct {
	kind kind
	n    int64 // count / period / truncate-length / millis
	hits int64 // evaluations so far
}

var (
	mu     sync.Mutex
	armed  = map[string]*action{}
	exitFn = os.Exit // swapped in registry tests so `crash` is testable
	// files logs the seam's steps while a RecordFiles is on.
	files *[]FileStep
)

func init() {
	if spec := os.Getenv(EnvVar); spec != "" {
		if err := EnableFromSpec(spec); err != nil {
			fmt.Fprintf(os.Stderr, "failpoint: bad %s: %v\n", EnvVar, err)
			os.Exit(2)
		}
	}
}

// Enable arms site with the given action string (see the package doc
// for the grammar). An action of "off" or "" disarms the site.
func Enable(site, spec string) error {
	a, err := parse(spec)
	if err != nil {
		return fmt.Errorf("failpoint %s: %w", site, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if a == nil {
		delete(armed, site)
	} else {
		armed[site] = a
	}
	return nil
}

// EnableFromSpec arms several sites from a "site=action;site=action"
// string — the KFLUSH_FAILPOINTS format.
func EnableFromSpec(spec string) error {
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, act, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("failpoint: malformed term %q (want site=action)", part)
		}
		if err := Enable(strings.TrimSpace(site), strings.TrimSpace(act)); err != nil {
			return err
		}
	}
	return nil
}

// Disable disarms one site.
func Disable(site string) {
	mu.Lock()
	delete(armed, site)
	mu.Unlock()
}

// DisableAll disarms every site. Tests call it in cleanup so armed
// failpoints never leak across test cases.
func DisableAll() {
	mu.Lock()
	armed = map[string]*action{}
	mu.Unlock()
}

// Hits returns how many times site has been evaluated while armed.
func Hits(site string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if a := armed[site]; a != nil {
		return a.hits
	}
	return 0
}

func parse(spec string) (*action, error) {
	name, argStr := spec, ""
	if i := strings.IndexByte(spec, '('); i >= 0 {
		if !strings.HasSuffix(spec, ")") {
			return nil, fmt.Errorf("malformed action %q", spec)
		}
		name, argStr = spec[:i], spec[i+1:len(spec)-1]
	}
	var n int64 = -1
	if argStr != "" {
		v, err := strconv.ParseInt(argStr, 10, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("malformed action arg %q", spec)
		}
		n = v
	}
	switch name {
	case "off", "":
		return nil, nil
	case "error":
		if n >= 0 {
			return &action{kind: kindErrorN, n: n}, nil
		}
		return &action{kind: kindError}, nil
	case "errevery":
		if n < 1 {
			return nil, fmt.Errorf("errevery needs a period >= 1, got %q", spec)
		}
		return &action{kind: kindErrEvery, n: n}, nil
	case "enospc":
		return &action{kind: kindENOSPC}, nil
	case "torn":
		if n < 0 {
			return nil, fmt.Errorf("torn needs a byte count, got %q", spec)
		}
		return &action{kind: kindTorn, n: n}, nil
	case "sleep":
		if n < 0 {
			return nil, fmt.Errorf("sleep needs millis, got %q", spec)
		}
		return &action{kind: kindSleep, n: n}, nil
	case "panic":
		return &action{kind: kindPanic}, nil
	case "crash":
		if n >= 0 {
			if n < 1 {
				return nil, fmt.Errorf("crash arg must be >= 1, got %q", spec)
			}
			return &action{kind: kindCrashN, n: n}, nil
		}
		return &action{kind: kindCrash}, nil
	default:
		return nil, fmt.Errorf("unknown action %q", spec)
	}
}

// NoteFile logs one step of the durable-file seam while RecordFiles is
// on.
func NoteFile(op FileOp, path string) {
	mu.Lock()
	if files != nil {
		*files = append(*files, FileStep{Op: op, Path: path})
	}
	mu.Unlock()
}

// RecordFiles starts logging the durable-file seam's steps, process-wide;
// stop ends it and returns the steps in the order they were taken.
func RecordFiles() (stop func() []FileStep) {
	log := new([]FileStep)
	mu.Lock()
	files = log
	mu.Unlock()
	return func() []FileStep {
		mu.Lock()
		defer mu.Unlock()
		if files == log {
			files = nil
		}
		return *log
	}
}

// Eval evaluates the failpoint at site. Disarmed sites return nil.
func Eval(site string) error {
	err, _ := eval(site, nil)
	return err
}

// EvalWrite evaluates a torn-write-capable site: the caller passes the
// buffer it is about to write and writes whatever comes back. Disarmed
// (and non-torn) actions return the buffer untouched plus Eval's
// verdict; a `torn(n)` action returns the first n bytes and an injected
// error, so the caller persists a genuine partial write and then fails
// exactly as a crashed kernel flush would look.
func EvalWrite(site string, buf []byte) ([]byte, error) {
	err, torn := eval(site, buf)
	if torn != nil {
		return torn, err
	}
	return buf, err
}

func eval(site string, buf []byte) (error, []byte) {
	mu.Lock()
	a := armed[site]
	if a == nil {
		mu.Unlock()
		return nil, nil
	}
	a.hits++
	hits := a.hits
	k, n := a.kind, a.n
	mu.Unlock()

	switch k {
	case kindError:
		return fmt.Errorf("%w at %s", ErrInjected, site), nil
	case kindErrorN:
		if hits <= n {
			return fmt.Errorf("%w at %s (hit %d/%d)", ErrInjected, site, hits, n), nil
		}
		return nil, nil
	case kindErrEvery:
		if hits%n == 0 {
			return fmt.Errorf("%w at %s (every %d)", ErrInjected, site, n), nil
		}
		return nil, nil
	case kindENOSPC:
		return fmt.Errorf("failpoint at %s: %w", site, syscall.ENOSPC), nil
	case kindTorn:
		keep := n
		if keep > int64(len(buf)) {
			keep = int64(len(buf))
		}
		return fmt.Errorf("%w at %s (torn write, %d/%d bytes)", ErrInjected, site, keep, len(buf)), buf[:keep]
	case kindSleep:
		time.Sleep(time.Duration(n) * time.Millisecond)
		return nil, nil
	case kindPanic:
		panic("failpoint: panic at " + site)
	case kindCrash:
		exitFn(CrashExitCode)
	case kindCrashN:
		if hits == n {
			exitFn(CrashExitCode)
		}
	}
	return nil, nil
}
