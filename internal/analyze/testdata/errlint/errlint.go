// Package errlint holds the errlint analyzer fixtures: discarded
// durability errors (bare Write/Sync/Close statements) are positives;
// checked returns, explicit `_ =` discards, deferred closes, and
// methods that return no error are negatives.
package errlint

import "os"

type Seg struct{ f *os.File }

// FlushBad drops both the sync and the close error.
func (s *Seg) FlushBad() {
	s.f.Sync()  // want "error returned by (File).Sync is discarded"
	s.f.Close() // want "error returned by (File).Close is discarded"
}

// FlushGood propagates both.
func (s *Seg) FlushGood(b []byte) error {
	if _, err := s.f.Write(b); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	return s.f.Close()
}

// Teardown discards explicitly: a deliberate, reviewable decision.
func (s *Seg) Teardown() {
	_ = s.f.Close()
}

// ReadPath defers the close of a read-only handle: accepted.
func (s *Seg) ReadPath() {
	defer s.f.Close()
}

// Quiet has a Close that returns nothing; nothing to discard.
type Quiet struct{}

func (Quiet) Close() {}

func UseQuiet(q Quiet) {
	q.Close()
}
