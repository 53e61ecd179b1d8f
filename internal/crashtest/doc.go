// Package crashtest is the crash-recovery test harness: it re-execs the
// test binary as a child process, kills the child at every registered
// crash failpoint (failpoint.CrashSites covers the WAL — sealing
// included — segment-write, compaction, drain, flush-cycle, and recovery
// paths; disk.TestUpgradeResumes cuts the offline upgrade), reopens the
// store over the wreckage, and asserts the durability invariants:
//
//   - no acknowledged ingest is lost — every ID a completed IngestBatch
//     returned is found by a post-crash search;
//   - answers carry no duplicates;
//   - every index posting references a live store record with a positive
//     posting count (the structural flush invariant);
//   - every directory parses, every record of every block it names
//     decodes, every posting resolves and every per-key list is strictly
//     rank-ordered (disk.Verify);
//   - the leveled manifest healed by recovery decodes, references only
//     files that exist, and never lists a file twice (live+retired, or
//     on two levels);
//   - no directory names a missing or truncated log file, and a durable
//     store wrote no record block;
//   - compacting the recovered tier preserves the disk ID set exactly —
//     duplicates a WAL replay legitimately re-flushed are deduplicated,
//     never dropped or doubled;
//   - recovery is idempotent: each site is crashed a second time during
//     its own recovery (a double crash), and two further clean reopens
//     agree exactly.
//
// The package holds no production code; its tests are build-tag-gated
// because they need the fault-injection registry compiled in:
//
//	go test -tags failpoint ./internal/crashtest/
//
// A plain `go test ./...` compiles this doc and runs nothing.
package crashtest
