#include "mig/journal.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "common/digest.hpp"
#include "common/durable_file.hpp"
#include "common/endian.hpp"
#include "common/error.hpp"
#include "common/hexdump.hpp"

namespace hpm::mig {

namespace {

/// Record wire format (all integers big-endian):
///   u32 'HPML' | u8 type | u64 txn | u64 digest | u32 incarnation |
///   u32 note_len | note bytes | u32 fold32(StreamDigest(everything preceding))
///
/// 'HPMJ' (before the failover incarnation) and 'HPMK' (this layout, sealed
/// by CRC-32) are the retired formats: replay() refuses a journal holding
/// one instead of reading it as "no intent".
constexpr std::uint32_t kJournalMagic = 0x48504D4C;    // "HPML"
constexpr std::uint32_t kRetiredMagicV1 = 0x48504D4A;  // "HPMJ"
constexpr std::uint32_t kRetiredMagicV2 = 0x48504D4B;  // "HPMK"
constexpr std::size_t kFixedHead = 4 + 1 + 8 + 8 + 4 + 4;

std::uint32_t seal_of(const std::uint8_t* p, std::size_t n) {
  return fold32(StreamDigest::of({p, n}));
}

void put_u32_be(Bytes& out, std::uint32_t v) {
  for (int i = 3; i >= 0; --i) out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
}

void put_u64_be(Bytes& out, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
}

Bytes encode_record(const JournalRecord& record) {
  Bytes out;
  out.reserve(kFixedHead + record.note.size() + 4);
  put_u32_be(out, kJournalMagic);
  out.push_back(static_cast<std::uint8_t>(record.type));
  put_u64_be(out, record.txn_id);
  put_u64_be(out, record.digest);
  put_u32_be(out, record.incarnation == 0 ? 1 : record.incarnation);
  put_u32_be(out, static_cast<std::uint32_t>(record.note.size()));
  out.insert(out.end(), record.note.begin(), record.note.end());
  put_u32_be(out, seal_of(out.data(), out.size()));
  return out;
}

}  // namespace

const char* journal_record_name(JournalRecordType type) noexcept {
  switch (type) {
    case JournalRecordType::Begin: return "begin";
    case JournalRecordType::Prepared: return "prepared";
    case JournalRecordType::Commit: return "commit";
    case JournalRecordType::Abort: return "abort";
    case JournalRecordType::Committed: return "committed";
    case JournalRecordType::Done: return "done";
  }
  return "?";
}

void Journal::append(const JournalRecord& record) {
  if (path_.empty()) return;  // null journal: nothing durable was promised
  std::lock_guard lk(mu_);
  // The record must be on disk before the caller acts on the decision it
  // encodes — that IS write-ahead logging.
  try {
    durable::append(path_, {encode_record(record)});
  } catch (const Error& e) {
    throw MigrationError("cannot append to intent journal: " + std::string(e.what()));
  }
}

std::vector<JournalRecord> Journal::replay(const std::string& path) {
  std::vector<JournalRecord> records;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return records;  // no journal = no recorded intent
  const Bytes file = durable::read_all(path);
  std::size_t pos = 0;
  while (file.size() - pos >= 4) {
    const std::uint8_t* p = file.data() + pos;
    const std::uint32_t magic = get_u32_be(p);
    if (magic == kRetiredMagicV1 || magic == kRetiredMagicV2) {
      throw MigrationError("intent journal " + path + " holds a '" +
                           (magic == kRetiredMagicV1 ? "HPMJ" : "HPMK") +
                           "' record: a CRC-32-sealed format retired with protocol v8, "
                           "which this build cannot arbitrate");
    }
    if (magic != kJournalMagic) break;  // torn/garbage tail
    if (file.size() - pos < kFixedHead + 4) break;
    const auto raw_type = p[4];
    const std::uint32_t note_len = get_u32_be(p + kFixedHead - 4);
    const std::size_t total = kFixedHead + note_len + 4;
    if (file.size() - pos < total) break;  // record cut short by a crash
    if (get_u32_be(p + kFixedHead + note_len) != seal_of(p, kFixedHead + note_len)) {
      break;  // damaged mid-append; drop it and everything after
    }
    if (raw_type < 1 || raw_type > 6) break;
    JournalRecord record;
    record.type = static_cast<JournalRecordType>(raw_type);
    record.txn_id = get_u64_be(p + 5);
    record.digest = get_u64_be(p + 13);
    record.incarnation = std::max(get_u32_be(p + 21), 1u);
    record.note.assign(reinterpret_cast<const char*>(p + kFixedHead), note_len);
    records.push_back(std::move(record));
    pos += total;
  }
  return records;
}

std::string keyed_source_journal_name(std::uint64_t txn_id) {
  return "source-" + std::to_string(txn_id) + ".journal";
}

std::string keyed_dest_journal_name(std::uint64_t txn_id) {
  return "dest-" + std::to_string(txn_id) + ".journal";
}

std::string keyed_dest_journal_name(std::uint64_t txn_id, std::uint32_t incarnation) {
  if (incarnation <= 1) return keyed_dest_journal_name(txn_id);
  return "dest-" + std::to_string(txn_id) + ".i" + std::to_string(incarnation) +
         ".journal";
}

namespace {

bool all_digits(const std::string& s) {
  return !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
}

/// The one journal file-name layout, parsed: "source-<txn>.journal",
/// "dest-<txn>.journal", or failover incarnation k's
/// "dest-<txn>.i<k>.journal".
struct JournalName {
  bool dest = false;
  std::uint64_t txn = 0;
  std::uint32_t incarnation = 1;
};

/// False for any name outside the layout.
bool parse_journal_name(const std::string& name, JournalName& out) {
  const std::size_t dash = name.find('-');
  if (dash == std::string::npos || !name.ends_with(".journal")) return false;
  const std::string stem = name.substr(0, dash);
  std::string digits = name.substr(dash + 1, name.size() - dash - 1 - 8);
  out.dest = stem == "dest";
  if (!out.dest && stem != "source") return false;
  out.incarnation = 1;
  const std::size_t dot = digits.find('.');
  if (dot != std::string::npos) {
    const std::string suffix = digits.substr(dot + 1);
    if (suffix.size() < 2 || suffix[0] != 'i' || !all_digits(suffix.substr(1))) {
      return false;
    }
    out.incarnation =
        static_cast<std::uint32_t>(std::strtoul(suffix.c_str() + 1, nullptr, 10));
    digits.resize(dot);
  }
  if (!all_digits(digits) || (!out.dest && out.incarnation != 1)) return false;
  out.txn = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

}  // namespace

std::vector<std::string> dest_journal_paths(const std::string& journal_dir,
                                            std::uint64_t txn_id) {
  std::vector<std::pair<std::uint32_t, std::string>> found;  // {incarnation, path}
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(journal_dir, ec)) {
    const std::string name = entry.path().filename().string();
    JournalName parsed;
    if (parse_journal_name(name, parsed) && parsed.dest && parsed.txn == txn_id) {
      found.emplace_back(parsed.incarnation, journal_dir + "/" + name);
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [inc, path] : found) paths.push_back(std::move(path));
  return paths;
}

std::vector<std::uint64_t> list_journaled_txns(const std::string& journal_dir,
                                               std::vector<std::string>* skipped) {
  std::vector<std::uint64_t> txns;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(journal_dir, ec)) {
    const std::string name = entry.path().filename().string();
    // Anything outside the journal layout — editor droppings, partial
    // copies, unrelated files — is reported (when asked) and stepped over
    // instead of poisoning the scan.
    JournalName parsed;
    if (!parse_journal_name(name, parsed)) {
      if (skipped != nullptr) skipped->push_back(name + " (unrelated)");
      continue;
    }
    std::error_code size_ec;
    if (std::filesystem::file_size(entry.path(), size_ec) == 0 && !size_ec) {
      // A zero-length journal is a torn creation (crash between open and
      // the first fsync'd record): it holds no intent, so it cannot vote
      // in arbitration — but its transaction may still have records on
      // the other side, so the txn id stays in the scan.
      if (skipped != nullptr) skipped->push_back(name + " (torn: zero length)");
    }
    txns.push_back(parsed.txn);
  }
  std::sort(txns.begin(), txns.end());
  txns.erase(std::unique(txns.begin(), txns.end()), txns.end());
  if (skipped != nullptr) std::sort(skipped->begin(), skipped->end());
  return txns;
}

std::vector<std::uint64_t> gc_completed_txn_journals(const std::string& journal_dir) {
  std::vector<std::uint64_t> swept;
  for (const std::uint64_t txn : list_journaled_txns(journal_dir)) {
    if (!recover(journal_dir, txn).completed) continue;  // live, in-doubt, or aborted: keep
    durable::remove(journal_dir + "/" + keyed_source_journal_name(txn));
    for (const std::string& dst : dest_journal_paths(journal_dir, txn)) durable::remove(dst);
    swept.push_back(txn);
  }
  // Unsynced, a crash can bring the journals back and recovery would
  // re-arbitrate a handoff that already finished.
  if (!swept.empty() && !durable::sync_dir(journal_dir)) {
    throw MigrationError("cannot sync journal directory " + journal_dir + " after GC");
  }
  return swept;
}

const char* txn_owner_name(TxnOwner owner) noexcept {
  switch (owner) {
    case TxnOwner::None: return "none";
    case TxnOwner::Source: return "source";
    case TxnOwner::Destination: return "destination";
  }
  return "?";
}

RecoveryVerdict recover_from_journals(const std::string& source_path,
                                      const std::string& dest_path) {
  return recover_from_journals(source_path, std::vector<std::string>{dest_path});
}

RecoveryVerdict recover_from_journals(const std::string& source_path,
                                      const std::vector<std::string>& dest_paths) {
  const std::vector<JournalRecord> src = Journal::replay(source_path);
  std::vector<std::vector<JournalRecord>> dsts;
  dsts.reserve(dest_paths.size());
  for (const std::string& path : dest_paths) dsts.push_back(Journal::replay(path));

  RecoveryVerdict verdict;
  bool any = !src.empty();
  for (const JournalRecord& r : src) verdict.txn_id = std::max(verdict.txn_id, r.txn_id);
  for (const auto& dst : dsts) {
    any = any || !dst.empty();
    for (const JournalRecord& r : dst) verdict.txn_id = std::max(verdict.txn_id, r.txn_id);
  }
  if (!any) {
    verdict.reason = "no transaction recorded in any journal";
    return verdict;
  }

  // The LAST decisive record of the latest transaction wins: an early
  // Abort followed by a committed retry ends at Commit/Done, and the
  // Commit carries the incarnation of the destination that voted for it
  // (a primary retry or a failover standby) — the fencing token that
  // disowns every earlier destination.
  bool src_commit = false, src_done = false;
  std::uint32_t commit_inc = 0;
  for (const JournalRecord& r : src) {
    if (r.txn_id != verdict.txn_id) continue;
    switch (r.type) {
      case JournalRecordType::Commit:
        src_commit = true;
        commit_inc = r.incarnation;
        break;
      case JournalRecordType::Abort: src_commit = false; src_done = false; break;
      case JournalRecordType::Done: src_done = true; break;
      default: break;
    }
  }
  std::uint32_t best_committed_inc = 0;
  for (const auto& dst : dsts) {
    std::uint32_t inc = 0;
    for (const JournalRecord& r : dst) {
      if (r.txn_id == verdict.txn_id && r.type == JournalRecordType::Committed) {
        inc = std::max(inc, r.incarnation);
      }
    }
    if (inc != 0) {
      ++verdict.committed_destinations;
      best_committed_inc = std::max(best_committed_inc, inc);
    }
  }

  if (src_done) {
    verdict.owner = TxnOwner::Destination;
    verdict.completed = true;
    verdict.incarnation = commit_inc != 0 ? commit_inc : std::max(best_committed_inc, 1u);
    verdict.reason = "source logged Done: destination incarnation " +
                     std::to_string(verdict.incarnation) + " confirmed completion";
  } else if (src_commit) {
    verdict.owner = TxnOwner::Destination;
    verdict.incarnation = commit_inc;
    verdict.reason = "source logged Commit for incarnation " + std::to_string(commit_inc) +
                     ": ownership passed; that destination must resume" +
                     (verdict.committed_destinations > 1
                          ? " (WARNING: multiple destinations logged Committed)"
                          : "");
  } else if (best_committed_inc != 0) {
    // Only reachable when the source journal was lost: the protocol never
    // lets a destination commit before the source's Commit is durable.
    // The highest committed incarnation is the last one the source fenced
    // everything else in favor of.
    verdict.owner = TxnOwner::Destination;
    verdict.incarnation = best_committed_inc;
    verdict.reason = "destination incarnation " + std::to_string(best_committed_inc) +
                     " logged Committed (source journal silent or lost)";
  } else {
    verdict.owner = TxnOwner::Source;
    verdict.reason = "no commit recorded: presumed abort; the source still owns "
                     "the process";
  }
  return verdict;
}

RecoveryVerdict recover(const std::string& journal_dir, std::uint64_t txn_id) {
  return recover_from_journals(journal_dir + "/" + keyed_source_journal_name(txn_id),
                               dest_journal_paths(journal_dir, txn_id));
}

RecoveryVerdict recover(const std::string& journal_dir) {
  // A torn creation (a zero-length journal) lists its txn but holds no
  // record; the latest transaction is the newest one that recorded any.
  const std::vector<std::uint64_t> txns = list_journaled_txns(journal_dir);
  for (auto it = txns.rbegin(); it != txns.rend(); ++it) {
    RecoveryVerdict verdict = recover(journal_dir, *it);
    if (verdict.owner != TxnOwner::None) return verdict;
  }
  return recover_from_journals(std::string(), std::vector<std::string>{});  // no record
}

}  // namespace hpm::mig
