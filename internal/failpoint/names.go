// Package failpoint is a deterministic, build-tag-gated fault-injection
// framework for the durability-bearing paths of the engine.
//
// A failpoint is a named site in the code — "wal/append/write",
// "disk/segment/rename" — where a test can inject a failure. In the
// default build (no tags) every site compiles to an inlinable no-op: the
// production binary carries zero overhead, which the benchmark in
// EXPERIMENTS.md "Fault injection" verifies. Under `-tags failpoint`
// each site consults a process-global registry of armed actions:
//
//	off          disarmed (same as never enabled)
//	error        fail every evaluation with ErrInjected
//	error(N)     fail the first N evaluations, then pass
//	errevery(N)  fail every Nth evaluation
//	enospc       fail with a syscall.ENOSPC-wrapped error
//	torn(N)      (write sites) truncate the buffer to N bytes and fail —
//	             the torn-write crash artifact
//	sleep(MS)    inject MS milliseconds of latency, then pass
//	panic        panic at the site
//	crash        exit the process immediately with CrashExitCode,
//	             simulating a crash at exactly this point (deferred
//	             cleanup does not run; OS-buffered writes survive, as
//	             they do when a real process dies)
//	crash(N)     crash on the Nth evaluation
//
// Actions are armed programmatically (Enable) or through the
// KFLUSH_FAILPOINTS environment variable ("site=action;site=action"),
// which child processes inherit — the mechanism internal/crashtest uses
// to kill a re-executed test binary at every registered crash site.
package failpoint

// Failpoint site names. Constants keep call sites typo-proof and give
// the crash-test harness an authoritative catalog to iterate.
const (
	// WAL sites (internal/wal).
	WALAppend            = "wal/append"             // batch encoded, before the file write
	WALAppendWrite       = "wal/append/write"       // the frame write itself (torn-write capable)
	WALAppendAfterWrite  = "wal/append/after-write" // frames written, before sync/rotate bookkeeping
	WALSync              = "wal/sync"               // any active-file fsync
	WALRotateSeal        = "wal/rotate/seal"        // the next file about to be created, the active one still taking appends
	WALRotateCreate      = "wal/rotate/create"      // creating the next log file
	WALRotateHeader      = "wal/rotate/header"      // writing the next file's header (torn-write capable)
	WALSealSync          = "wal/seal/sync"          // a file taken out of service, its frame index not yet written and fsynced
	WALReferenceAppended = "wal/reference/appended" // a reference frame listing a sealed file's survivors appended, not yet fsynced
	WALReferenceSynced   = "wal/reference/synced"   // the reference frame durable, the source file still covering the survivors

	// Disk-tier sites (internal/disk).
	DiskSegmentCreate      = "disk/segment/create"       // creating a staged file (block, directory, merged directory)
	DiskSegmentWrite       = "disk/segment/write"        // writing a flush's record block file (torn-write capable)
	DiskSegmentDirWrite    = "disk/segment/dir"          // writing a directory file, flushed or merged (torn-write capable)
	DiskSegmentSync        = "disk/segment/sync"         // syncing a staged file
	DiskSegmentRename      = "disk/segment/rename"       // a flush's staged file durable, its rename not yet done (block first, then directory)
	DiskBlockAfterRename   = "disk/block/after-rename"   // block renamed live, its directory not yet
	DiskSegmentAfterRename = "disk/segment/after-rename" // block and directory renamed, tier not yet updated
	DiskPread              = "disk/pread"                // record read from a block file
	DiskCompactRename      = "disk/compact/rename"       // merged directory written, rename not yet done
	DiskCompactRemove      = "disk/compact/remove"       // merged directory committed, inputs not yet deleted

	// Leveled-tier sites (internal/disk): the manifest commit protocol
	// and the points where a segment is live on disk but not yet
	// referenced by a committed manifest.
	DiskManifestWrite  = "disk/manifest/write"  // writing the manifest temp file (torn-write capable)
	DiskManifestSync   = "disk/manifest/sync"   // syncing the manifest temp file
	DiskManifestRename = "disk/manifest/rename" // temp manifest durable, rename not yet done
	DiskLevelInstall   = "disk/level/install"   // flushed block and directory renamed live, manifest not yet committed
	DiskCompactInstall = "disk/compact/install" // merged directory renamed live, manifest not yet committed
	DiskDrainMark      = "disk/drain/mark"      // a log file's last claim gone (its directories installed), the drained mark not yet committed
	DiskDrainCommitted = "disk/drain/committed" // the drained mark committed, nothing else done to the file yet

	// Flush-cycle sites (internal/engine, internal/core, internal/policy).
	FlushBegin       = "flush/begin"        // flush cycle entered, nothing evicted yet
	FlushAfterPhase1 = "flush/after-phase1" // kFlushing Phase 1 done, Phase 2 not started
	FlushAfterPhase2 = "flush/after-phase2" // kFlushing Phase 2 done, Phase 3 not started
	FlushAfterEvict  = "flush/after-evict"  // victims evicted from memory, tier write not started
	FlushAfterWrite  = "flush/after-write"  // tier write done, cycle not yet accounted

	// Shared-log sites (internal/engine): one stream's batch logged once
	// and admitted by each attribute engine in turn.
	StreamAppended = "engine/stream/appended" // the batch logged and claimed for every engine, none admitted yet
	StreamAdmitted = "engine/stream/admitted" // one engine admitted its share of the batch, the next not yet

	// Recovery sites (internal/engine).
	RecoverReplayRecord = "engine/recover/record" // evaluated per replayed WAL record
	RecoverAfterReplay  = "engine/recover/done"   // replay complete, recovery flush not yet run

	// Error-injection-only sites: fallible I/O that must surface (or
	// tolerate) failure cleanly but where a process kill is either
	// pre-durability or equivalent to an already-covered crash site.
	// They are deliberately NOT in CrashSites — adding
	// them would grow the crash matrix without exercising any new
	// recovery invariant — but the kfvet failpointcov analyzer requires
	// every fallible I/O call to sit within reach of one, so error and
	// enospc actions can interrupt it.
	WALOpenMkdir        = "wal/open/mkdir"        // creating the log directory (no WAL exists yet)
	WALRollbackTruncate = "wal/rollback/truncate" // rolling back a partial append; failure seals the file
	WALReadySync        = "wal/ready/sync"        // the /readyz probe fsync; failure flips readiness
	WALReplayTruncate   = "wal/replay/truncate"   // truncating a tolerated torn tail during replay
	WALCloseSync        = "wal/close/sync"        // the final fsync in Close
	WALCreateDirSync    = "wal/create/dirsync"    // the directory fsync that makes a new log file's entry durable, before its first append (the create and header sites cover the crash)
	WALReclaimUnlink    = "wal/reclaim/unlink"    // unlinking a log file with no frames, or any unclaimed file of a log no tier owns
	DiskOpenMkdir       = "disk/open/mkdir"       // creating the tier directory (no segments exist yet)
	DiskDirSync         = "disk/dir/sync"         // directory fsync after a rename (rename sites cover the crash)
	DiskAdoptRemove     = "disk/adopt/remove"     // deleting retired inputs during manifest recovery (best-effort)
	DiskDrainUnlink     = "disk/drain/unlink"     // the LogSet unlinking a drained log file no tier's directory names (its next sweep deletes it too)
)

// FileOp is a step the disk package's durable-file seam takes on a
// name. In a build with the failpoint tag RecordFiles logs the steps, so a
// test can check which directory entries were durable when.
type FileOp uint8

const (
	FileCreated  FileOp = iota // a file took its final name: created there, or renamed into place
	FileAppended               // a log file took an append that may be acked
	DirSynced                  // a directory was fsynced: every entry in it is durable
)

// FileStep is one step of the seam: Path is the file, or for DirSynced
// the directory.
type FileStep struct {
	Op   FileOp
	Path string
}

// CrashSites returns every site at which a crash must be recoverable:
// the contract of the internal/crashtest matrix is that killing the
// process at ANY of these points loses no acknowledged ingest and
// leaves a consistent, reopenable store. DiskPread is excluded (reads
// cannot lose data).
func CrashSites() []string {
	return []string{
		WALAppend, WALAppendWrite, WALAppendAfterWrite,
		WALSync,
		WALRotateSeal, WALRotateCreate, WALRotateHeader, WALSealSync,
		WALReferenceAppended, WALReferenceSynced,
		DiskSegmentCreate, DiskSegmentWrite, DiskSegmentDirWrite,
		DiskSegmentSync, DiskSegmentRename, DiskBlockAfterRename, DiskSegmentAfterRename,
		DiskCompactRename, DiskCompactRemove,
		DiskManifestWrite, DiskManifestSync, DiskManifestRename,
		DiskLevelInstall, DiskCompactInstall, DiskDrainMark, DiskDrainCommitted,
		FlushBegin, FlushAfterPhase1, FlushAfterPhase2,
		FlushAfterEvict, FlushAfterWrite,
		StreamAppended, StreamAdmitted,
		RecoverReplayRecord, RecoverAfterReplay,
	}
}

// CrashExitCode is the process exit status of the `crash` action,
// distinguishing an injected crash from a test failure (1) or success
// (0) when a harness inspects a child's exit state.
const CrashExitCode = 125

// EnvVar is the environment variable Enable-from-environment reads:
// "site=action;site=action". Child processes inherit it, so a harness
// can arm failpoints in a re-executed test binary.
const EnvVar = "KFLUSH_FAILPOINTS"
