//go:build failpoint

package wal

import (
	"errors"
	"testing"
	"time"

	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
)

// TestTornAppendRolledBack injects a torn write into one append: only
// part of the frame reaches the file. The log must truncate the partial
// frame away immediately so later appends land on a clean tail, and a
// full recovery must see every successful append and nothing of the
// torn one.
func TestTornAppendRolledBack(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		if err := l.Append(fr(i, "a")); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the next frame after 7 bytes: the 8-byte frame header itself
	// is cut short.
	if err := failpoint.Enable(failpoint.WALAppendWrite, "torn(7)"); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(fr(6, "a")); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("torn append error = %v, want injected", err)
	}
	failpoint.Disable(failpoint.WALAppendWrite)
	// The partial frame was rolled back, so this append must not bury
	// garbage mid-file.
	if err := l.Append(fr(7, "a")); err != nil {
		t.Fatalf("append after torn rollback: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recs := replayAll(t, re)
	if len(recs) != 6 {
		t.Fatalf("replayed %d records, want 6 (5 + post-rollback append)", len(recs))
	}
	for _, r := range recs {
		if r.MB.ID == 6 {
			t.Fatal("torn append resurrected by replay")
		}
	}
	if got := recs[len(recs)-1].MB.ID; uint64(got) != 7 {
		t.Fatalf("last replayed id = %d, want 7", got)
	}
}

// TestSyncFaultSurfaces: a failing fsync must surface to the caller —
// the append is not acknowledged — while the log itself stays usable
// once the fault clears (the frame bytes are valid; recovery treats the
// record as an unacknowledged duplicate at worst).
func TestSyncFaultSurfaces(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	l, err := Open(t.TempDir(), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := failpoint.Enable(failpoint.WALSync, "error(1)"); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(fr(1, "a")); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("append with sync fault = %v, want injected", err)
	}
	// Fault cleared: appends recover.
	if err := l.Append(fr(2, "a")); err != nil {
		t.Fatalf("append after sync fault cleared: %v", err)
	}
}

// TestSyncFaultTakesNoClaims: an append whose fsync fails is not
// acknowledged, so the caller releases none of its frames — the log must
// not have claimed them. Otherwise the file's covers never reach zero and
// it never drains.
func TestSyncFaultTakesNoClaims(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	l, err := Open(t.TempDir(), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := failpoint.Enable(failpoint.WALSync, "error(1)"); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([]disk.FlushRecord{fr(1, "a"), fr(2, "a")}); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("append with sync fault = %v, want injected", err)
	}
	if st := l.Stats(); st.LiveRecords != 0 {
		t.Fatalf("live records = %d after a failed append, want 0", st.LiveRecords)
	}
	acked := []disk.FlushRecord{fr(3, "a")}
	if err := l.AppendBatch(acked); err != nil {
		t.Fatalf("append after sync fault cleared: %v", err)
	}
	l.Release(acked[0].ReplaySeq, acked[0].LogSeq, 1)
	if st := l.Stats(); st.LiveRecords != 0 {
		t.Fatalf("live records = %d once the acked record is released, want 0", st.LiveRecords)
	}
}

// TestErrorOnlySitesLive arms the error-injection-only sites — the
// ones registered so failpointcov can reach every fallible I/O call
// but deliberately excluded from CrashSites — and proves each actually
// interrupts its operation. A site that never fires is a dead catalog
// entry wearing a coverage costume.
func TestErrorOnlySitesLive(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)

	if err := failpoint.Enable(failpoint.WALOpenMkdir, "error"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(t.TempDir(), Options{}); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("Open with %s armed = %v, want injected error", failpoint.WALOpenMkdir, err)
	}
	failpoint.Disable(failpoint.WALOpenMkdir)

	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable(failpoint.WALReadySync, "error"); err != nil {
		t.Fatal(err)
	}
	if err := l.CheckAppendable(); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("CheckAppendable with %s armed = %v, want injected error", failpoint.WALReadySync, err)
	}
	failpoint.Disable(failpoint.WALReadySync)
	if err := l.CheckAppendable(); err != nil {
		t.Fatalf("CheckAppendable after disarm = %v", err)
	}

	if err := failpoint.Enable(failpoint.WALCloseSync, "error"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("Close with %s armed = %v, want injected error", failpoint.WALCloseSync, err)
	}
	failpoint.Disable(failpoint.WALCloseSync)
	if err := l.Close(); err != nil {
		t.Fatalf("Close after disarm = %v", err)
	}
}

// TestCreateDirSyncFault arms the directory fsync that makes a new log
// file's entry durable before its first append: Open and a rotation fail
// with it and leave no file under the new name, the active file keeps
// taking appends, and a replay finds every acked record.
func TestCreateDirSyncFault(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	dir := t.TempDir()
	logs := func() []string {
		t.Helper()
		names, err := disk.LogFileNames(dir)
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	if err := failpoint.Enable(failpoint.WALCreateDirSync, "error"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("Open with %s armed = %v, want injected error", failpoint.WALCreateDirSync, err)
	}
	if names := logs(); len(names) != 0 {
		t.Fatalf("a failed Open left %v", names)
	}
	failpoint.Disable(failpoint.WALCreateDirSync)
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(fr(1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable(failpoint.WALCreateDirSync, "error"); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("Seal with %s armed = %v, want injected error", failpoint.WALCreateDirSync, err)
	}
	failpoint.Disable(failpoint.WALCreateDirSync)
	if names := logs(); len(names) != 1 || names[0] != disk.LogName(1) {
		t.Fatalf("after a failed rotation the directory holds %v, want only %s", names, disk.LogName(1))
	}
	if err := l.Append(fr(2, "a")); err != nil {
		t.Fatalf("append after a failed rotation: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var ids []uint64
	if err := l.Replay(func(r disk.FlushRecord) error { ids = append(ids, uint64(r.MB.ID)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("replay delivered %v, want [1 2]", ids)
	}
}

// TestSyncRacingClose: Close removes an active file that holds nothing.
// A Sync already past its look at the active file — held at the sync
// site here — must finish its fsync before Close closes the handle, not
// fail with the handle closed under it.
func TestSyncRacingClose(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable(failpoint.WALSync, "sleep(200)"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() { done <- l.Sync() }()
	time.Sleep(50 * time.Millisecond) // Sync is asleep at the site
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Sync racing Close: %v", err)
	}
}
