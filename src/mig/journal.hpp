// Durable intent journal for the transactional handoff (DESIGN.md §11).
//
// Two-phase commit only works if each endpoint can answer "what had I
// decided?" after a crash. Each side appends fixed-format, sealed,
// fsync'd records to its own append-only file BEFORE acting on a
// decision (write-ahead); recover_from_journals() replays both files and
// deterministically names the endpoint that owns the process — never
// both, never neither:
//
//   source journal:  Begin .. [Abort|Commit]* .. Done
//   dest journal:    Begin .. Prepared .. Committed
//
//   owner(txn) = Destination  iff  source logged Commit for txn
//                                  (or dest logged Committed — which the
//                                   protocol only allows after a durable
//                                   source Commit)
//              = Source       otherwise (presumed abort)
//
// The decisive record is the LAST one: a transaction whose first
// incarnation aborted and whose retry at a fresh incarnation committed
// ends at that incarnation's Commit/Done.
// Replay tolerates a torn tail — a record cut short or damaged by a
// crash mid-append is ignored along with everything after it, exactly
// the prefix-durability a write-ahead log needs.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace hpm::mig {

enum class JournalRecordType : std::uint8_t {
  Begin = 1,      ///< transaction opened (first chunk left / StateBegin seen)
  Prepared = 2,   ///< dest: restoration verified, voted yes, awaiting verdict
  Commit = 3,     ///< source: ownership relinquished — the point of no return
  Abort = 4,      ///< source: handoff cancelled; source still owns the process
  Committed = 5,  ///< dest: verdict received (or recovered); dest owns the process
  Done = 6,       ///< source: destination confirmed completion; nothing to recover
};

const char* journal_record_name(JournalRecordType type) noexcept;

struct JournalRecord {
  JournalRecordType type{};
  std::uint64_t txn_id = 0;
  std::uint64_t digest = 0;  ///< end-to-end stream digest, where known
  /// Destination incarnation the record speaks about: 1 for the primary,
  /// k+1 for the k-th failover standby. A source Commit names the one
  /// incarnation allowed to own the process; every other destination is
  /// fenced.
  std::uint32_t incarnation = 1;
  std::string note;          ///< free-form context ("recovered from journals", ...)
};

/// Append-only write-ahead log. A default-constructed Journal is the
/// in-memory null journal: append() records nothing durable (used when
/// RunOptions::journal_dir is unset), replay() of its empty path yields
/// nothing. With a path, every append is fsync'd (durable::append) before
/// returning, so a record that append() returned for survives a crash.
class Journal {
 public:
  Journal() = default;
  explicit Journal(std::string path) : path_(std::move(path)) {}

  /// Late-bind a path onto a null journal. Not thread-safe: call before
  /// any thread can append (the mutex member makes Journal immovable, so
  /// two-phase construction is the way to conditionally enable one).
  void open(std::string path) { path_ = std::move(path); }

  /// Thread-safe (the sender thread Begins while the main thread drives
  /// the commit phase). Throws hpm::MigrationError if the file cannot be
  /// written — a journal that cannot promise durability must not pretend.
  void append(const JournalRecord& record);

  [[nodiscard]] bool durable() const noexcept { return !path_.empty(); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Every intact record, in append order. A missing file is an empty
  /// journal; a torn or damaged tail record is dropped together with
  /// anything after it. Throws hpm::MigrationError, naming the format, for
  /// a record in a retired format ('HPMJ', 'HPMK'): read as a torn tail it
  /// would look like "no intent" and could hand ownership to the wrong host.
  static std::vector<JournalRecord> replay(const std::string& path);

 private:
  std::mutex mu_;
  std::string path_;
};

/// File names inside RunOptions::journal_dir, keyed by transaction id —
/// "source-<txn>.journal" / "dest-<txn>.journal" — so every run, exclusive
/// or one of several concurrent sessions, recovers against its own pair.
std::string keyed_source_journal_name(std::uint64_t txn_id);
std::string keyed_dest_journal_name(std::uint64_t txn_id);

/// Dest journal name for a specific incarnation: the primary (inc 1)
/// keeps the plain keyed name, standby k writes "dest-<txn>.i<k>.journal"
/// beside it so arbitration can see every destination that ever touched
/// the transaction.
std::string keyed_dest_journal_name(std::uint64_t txn_id, std::uint32_t incarnation);

/// Every destination journal recorded for `txn_id` in `journal_dir` (the
/// primary's plus any failover incarnations'), existing files only,
/// incarnation order.
std::vector<std::string> dest_journal_paths(const std::string& journal_dir,
                                            std::uint64_t txn_id);

/// Transaction ids that have a keyed journal pair (either side) in
/// `journal_dir`, ascending. The directory may not exist (empty result).
/// When `skipped` is non-null, files in the directory that are NOT keyed
/// journals (unrelated names, and zero-length torn journals that hold no
/// replayable record) are reported there instead of silently ignored, so
/// `hpmtool recover` can say what the scan stepped over.
std::vector<std::uint64_t> list_journaled_txns(const std::string& journal_dir,
                                               std::vector<std::string>* skipped = nullptr);

/// Garbage-collect the keyed journal pairs of COMPLETED transactions
/// ("Done recorded": nothing left to recover): both files are unlinked and
/// the directory is fsync'd, so a crash cannot bring them back. Returns the
/// transaction ids swept, ascending; throws hpm::MigrationError if the
/// directory cannot be synced. In-doubt or aborted pairs are never touched.
std::vector<std::uint64_t> gc_completed_txn_journals(const std::string& journal_dir);

enum class TxnOwner : std::uint8_t { None, Source, Destination };

const char* txn_owner_name(TxnOwner owner) noexcept;

struct RecoveryVerdict {
  TxnOwner owner = TxnOwner::None;
  bool completed = false;  ///< Done recorded: the handoff finished; nothing to resume
  std::uint64_t txn_id = 0;
  /// When the destination owns: the ONE incarnation allowed to commit
  /// (from the source's Commit record, or the committed journal itself).
  std::uint32_t incarnation = 0;
  /// Destination journals holding a Committed record for the transaction.
  /// The fencing protocol keeps this at most 1; arbitration reports the
  /// count so a violation is visible instead of silently arbitrated away.
  std::uint32_t committed_destinations = 0;
  std::string reason;  ///< human-readable derivation of the verdict
};

/// Deterministic post-crash arbitration from the two journals alone
/// (either file may be missing). Considers the latest transaction id
/// present on either side.
RecoveryVerdict recover_from_journals(const std::string& source_path,
                                      const std::string& dest_path);

/// Multi-destination arbitration: one source journal against every
/// destination journal the transaction ever touched (primary + failover
/// incarnations). The source's last decisive Commit names the fencing
/// incarnation; a Committed record under any other incarnation is a
/// fenced stale destination and never wins ownership.
RecoveryVerdict recover_from_journals(const std::string& source_path,
                                      const std::vector<std::string>& dest_paths);

/// Decide, from the intent journals in `journal_dir` alone, which
/// endpoint owns transaction `txn_id` after a crash: its source journal
/// against every destination journal (primary and failover incarnations)
/// it left behind. A missing or torn journal file is treated as empty
/// (crash before any write), never as an error.
RecoveryVerdict recover(const std::string& journal_dir, std::uint64_t txn_id);

/// The same for the latest transaction in `journal_dir`: the highest
/// journaled txn id that holds any record (txn ids grow with the wall
/// clock, so that is the last run that journaled into the directory).
RecoveryVerdict recover(const std::string& journal_dir);

}  // namespace hpm::mig
