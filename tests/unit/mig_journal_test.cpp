// Intent journal: durability format and crash arbitration.
//
// The journal is the ground truth of the transactional handoff, so these
// tests attack exactly what a crash attacks: records cut short mid-append,
// seal damage, missing files, records in a retired format — and then the
// full verdict table of recover_from_journals(), which must name exactly
// one owner from any journal state the protocol can leave behind — and
// recover(), which picks that state's files out of a journal directory.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "mig/journal.hpp"
#include "support/crc32_reference.hpp"

namespace hpm::mig {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hpm_journal_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  /// Write `records` to a fresh journal file and return its path.
  std::string write(const char* name, const std::vector<JournalRecord>& records) {
    const std::string p = path(name);
    Journal j(p);
    for (const JournalRecord& r : records) j.append(r);
    return p;
  }

  std::filesystem::path dir_;
};

TEST_F(JournalTest, AppendReplayRoundTrip) {
  const std::vector<JournalRecord> written = {
      {JournalRecordType::Begin, 42, 0, 1, "source"},
      {JournalRecordType::Commit, 42, 0xDEADBEEFCAFEF00Du, 1, ""},
      {JournalRecordType::Done, 42, 0xDEADBEEFCAFEF00Du, 1, "confirmed by destination"},
  };
  const std::string p = write("roundtrip.journal", written);

  const std::vector<JournalRecord> read = Journal::replay(p);
  ASSERT_EQ(read.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(read[i].type, written[i].type);
    EXPECT_EQ(read[i].txn_id, written[i].txn_id);
    EXPECT_EQ(read[i].digest, written[i].digest);
    EXPECT_EQ(read[i].note, written[i].note);
  }
}

// One record exactly as the journal writes it: 'HPML', Commit, txn
// 0x0123456789ABCDEF, digest 0xFEDCBA9876543210, incarnation 2, note
// "serial fallback", sealed by fold32(StreamDigest) ff 5a f1 5a. Journals
// on disk outlive the code that wrote them, so this must replay and
// re-encode byte for byte.
constexpr std::uint8_t kGoldenRecord[] = {
    0x48, 0x50, 0x4d, 0x4c, 0x03, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd,
    0xef, 0xfe, 0xdc, 0xba, 0x98, 0x76, 0x54, 0x32, 0x10, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x0f, 0x73, 0x65, 0x72, 0x69, 0x61, 0x6c, 0x20,
    0x66, 0x61, 0x6c, 0x6c, 0x62, 0x61, 0x63, 0x6b, 0xff, 0x5a, 0xf1, 0x5a,
};

// The same record as the journal wrote it before protocol v8: the 'HPMK'
// magic and a CRC-32 seal (04 7b 00 23). Kept as the legacy pin: read as
// a torn tail it would replay as "no intent", so it must be refused.
constexpr std::uint8_t kHpmkRecord[] = {
    0x48, 0x50, 0x4d, 0x4b, 0x03, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd,
    0xef, 0xfe, 0xdc, 0xba, 0x98, 0x76, 0x54, 0x32, 0x10, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x0f, 0x73, 0x65, 0x72, 0x69, 0x61, 0x6c, 0x20,
    0x66, 0x61, 0x6c, 0x6c, 0x62, 0x61, 0x63, 0x6b, 0x04, 0x7b, 0x00, 0x23,
};

template <std::size_t N>
void write_bytes(const std::string& path, const std::uint8_t (&bytes)[N]) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes), N);
}

TEST_F(JournalTest, GoldenRecordReplaysAndReencodesByteForByte) {
  const std::string golden = path("golden.journal");
  write_bytes(golden, kGoldenRecord);
  const std::vector<JournalRecord> read = Journal::replay(golden);
  ASSERT_EQ(read.size(), 1u);
  EXPECT_EQ(read[0].type, JournalRecordType::Commit);
  EXPECT_EQ(read[0].txn_id, 0x0123456789ABCDEFull);
  EXPECT_EQ(read[0].digest, 0xFEDCBA9876543210ull);
  EXPECT_EQ(read[0].incarnation, 2u);
  EXPECT_EQ(read[0].note, "serial fallback");

  const std::string again = write("again.journal", read);
  std::ifstream in(again, std::ios::binary);
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes,
            std::vector<std::uint8_t>(std::begin(kGoldenRecord), std::end(kGoldenRecord)));
}

/// Replay `path` and return the MigrationError's text ("" if none).
std::string replay_error(const std::string& path) {
  try {
    Journal::replay(path);
  } catch (const MigrationError& e) {
    return e.what();
  }
  return "";
}

TEST_F(JournalTest, RetiredRecordFormatsAreTypedErrors) {
  // The 'HPMK' pin, alone and after an intact 'HPML' record.
  const std::string hpmk = path("hpmk.journal");
  write_bytes(hpmk, kHpmkRecord);
  EXPECT_NE(replay_error(hpmk).find("'HPMK'"), std::string::npos) << replay_error(hpmk);
  const std::string mixed = write("mixed.journal", {{JournalRecordType::Begin, 7, 0, 1, ""}});
  {
    std::ofstream out(mixed, std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(kHpmkRecord), sizeof(kHpmkRecord));
  }
  EXPECT_NE(replay_error(mixed).find("'HPMK'"), std::string::npos) << replay_error(mixed);

  // An 'HPMJ' record (the pre-incarnation layout): Begin, txn 7, no note,
  // CRC-32 sealed — and a torn one, cut inside its fixed head.
  std::vector<std::uint8_t> hpmj = {0x48, 0x50, 0x4d, 0x4a, 0x01, 0, 0, 0, 0, 0, 0, 0, 7,
                                    0,    0,    0,    0,    0,    0, 0, 0, 0, 0, 0, 0};
  const std::uint32_t crc = test::crc32_reference(hpmj.data(), hpmj.size());
  for (int shift = 24; shift >= 0; shift -= 8) {
    hpmj.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
  for (const std::size_t keep : {hpmj.size(), std::size_t{10}}) {
    const std::string p = path("hpmj.journal");
    std::ofstream(p, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(hpmj.data()), static_cast<std::streamsize>(keep));
    EXPECT_NE(replay_error(p).find("'HPMJ'"), std::string::npos) << keep << " bytes";
  }

  // recover() arbitrates through replay, so it refuses the old journal
  // instead of naming the source owner of a transaction it cannot read.
  const std::string dir = path("legacy_dir");
  std::filesystem::create_directories(dir);
  write_bytes(dir + "/" + keyed_source_journal_name(0x0123456789ABCDEFull), kHpmkRecord);
  EXPECT_THROW(recover(dir), MigrationError);
  EXPECT_THROW(recover(dir, 0x0123456789ABCDEFull), MigrationError);
}

TEST_F(JournalTest, MissingFileReplaysEmpty) {
  EXPECT_TRUE(Journal::replay(path("never_written.journal")).empty());
}

TEST_F(JournalTest, NullJournalRecordsNothing) {
  Journal null_journal;
  EXPECT_FALSE(null_journal.durable());
  null_journal.append({JournalRecordType::Commit, 1, 0, 1, ""});  // must not throw
}

TEST_F(JournalTest, UnwritablePathThrows) {
  Journal j("/nonexistent-dir/j.journal");
  EXPECT_THROW(j.append({JournalRecordType::Begin, 1, 0, 1, ""}), MigrationError);
}

TEST_F(JournalTest, TornTailRecordIsDropped) {
  const std::string p = write("torn.journal", {
      {JournalRecordType::Begin, 7, 0, 1, "source"},
      {JournalRecordType::Commit, 7, 99, 1, "about to be torn"},
  });
  // Crash mid-append: cut the last record short by a few bytes.
  const auto full = std::filesystem::file_size(p);
  std::filesystem::resize_file(p, full - 5);

  const std::vector<JournalRecord> read = Journal::replay(p);
  ASSERT_EQ(read.size(), 1u) << "the torn Commit must not replay";
  EXPECT_EQ(read[0].type, JournalRecordType::Begin);
}

TEST_F(JournalTest, SealDamageDropsTheRecordAndEverythingAfter) {
  const std::string p = write("seal.journal", {
      {JournalRecordType::Begin, 7, 0, 1, ""},
      {JournalRecordType::Prepared, 7, 1, 1, ""},
      {JournalRecordType::Committed, 7, 1, 1, ""},
  });
  // Flip one byte inside the SECOND record's txn field.
  std::fstream f(p, std::ios::binary | std::ios::in | std::ios::out);
  const std::size_t record_size = 4 + 1 + 8 + 8 + 4 + 4 + 0 + 4;  // no note
  f.seekp(static_cast<std::streamoff>(record_size + 8));
  char b = 0;
  f.read(&b, 1);
  f.seekp(static_cast<std::streamoff>(record_size + 8));
  b = static_cast<char>(b ^ 0x5A);
  f.write(&b, 1);
  f.close();

  const std::vector<JournalRecord> read = Journal::replay(p);
  ASSERT_EQ(read.size(), 1u) << "damage must drop the record AND its successors";
  EXPECT_EQ(read[0].type, JournalRecordType::Begin);
}

// --- the arbitration table: every protocol-reachable journal state names
// exactly one owner.

TEST_F(JournalTest, VerdictEmptyJournalsNameNoOwner) {
  const RecoveryVerdict v =
      recover_from_journals(path("none_src"), path("none_dst"));
  EXPECT_EQ(v.owner, TxnOwner::None);
  EXPECT_FALSE(v.completed);
}

TEST_F(JournalTest, VerdictBeginOnlyIsPresumedAbort) {
  // Crash pre-Prepare: both sides opened the transaction, nobody decided.
  const std::string src = write("s1", {{JournalRecordType::Begin, 5, 0, 1, "source"}});
  const std::string dst = write("d1", {{JournalRecordType::Begin, 5, 0, 1, "destination"}});
  const RecoveryVerdict v = recover_from_journals(src, dst);
  EXPECT_EQ(v.owner, TxnOwner::Source);
  EXPECT_EQ(v.txn_id, 5u);
  EXPECT_FALSE(v.completed);
}

TEST_F(JournalTest, VerdictPreparedWithoutCommitIsPresumedAbort) {
  // Crash post-Prepare, pre-Commit: the destination voted yes but the
  // source never made the decision durable — source still owns.
  const std::string src = write("s2", {{JournalRecordType::Begin, 5, 0, 1, ""}});
  const std::string dst = write("d2", {{JournalRecordType::Begin, 5, 0, 1, ""},
                                       {JournalRecordType::Prepared, 5, 9, 1, ""}});
  const RecoveryVerdict v = recover_from_journals(src, dst);
  EXPECT_EQ(v.owner, TxnOwner::Source);
}

TEST_F(JournalTest, VerdictSourceCommitHandsOwnershipToDestination) {
  // Crash post-Commit: the source relinquished; it does not matter whether
  // the Commit frame ever reached the destination.
  const std::string src = write("s3", {{JournalRecordType::Begin, 5, 0, 1, ""},
                                       {JournalRecordType::Commit, 5, 9, 1, ""}});
  const std::string dst = write("d3", {{JournalRecordType::Begin, 5, 0, 1, ""},
                                       {JournalRecordType::Prepared, 5, 9, 1, ""}});
  const RecoveryVerdict v = recover_from_journals(src, dst);
  EXPECT_EQ(v.owner, TxnOwner::Destination);
  EXPECT_FALSE(v.completed);
}

TEST_F(JournalTest, VerdictDoneMarksTheHandoffComplete) {
  const std::string src = write("s4", {{JournalRecordType::Begin, 5, 0, 1, ""},
                                       {JournalRecordType::Commit, 5, 9, 1, ""},
                                       {JournalRecordType::Done, 5, 9, 1, ""}});
  const RecoveryVerdict v = recover_from_journals(src, path("d4_missing"));
  EXPECT_EQ(v.owner, TxnOwner::Destination);
  EXPECT_TRUE(v.completed);
}

TEST_F(JournalTest, VerdictAbortThenCommitLastDecisionWins) {
  // Incarnation 1 aborted, a retry of the SAME transaction at a fresh
  // incarnation committed: the last decisive record governs.
  const std::string src = write("s5", {{JournalRecordType::Begin, 5, 0, 1, ""},
                                       {JournalRecordType::Abort, 5, 0, 1, "vetoed"},
                                       {JournalRecordType::Begin, 5, 0, 2, "attempt 2"},
                                       {JournalRecordType::Commit, 5, 9, 2, ""}});
  const RecoveryVerdict v = recover_from_journals(src, path("d5_missing"));
  EXPECT_EQ(v.owner, TxnOwner::Destination);
  EXPECT_EQ(v.incarnation, 2u);
}

TEST_F(JournalTest, VerdictAbortAfterCommitNeverHappensButResolvesToSource) {
  const std::string src = write("s6", {{JournalRecordType::Commit, 5, 9, 1, ""},
                                       {JournalRecordType::Abort, 5, 0, 1, ""}});
  const RecoveryVerdict v = recover_from_journals(src, path("d6_missing"));
  EXPECT_EQ(v.owner, TxnOwner::Source);
}

TEST_F(JournalTest, VerdictDestCommittedAloneStillNamesDestination) {
  // The source journal was lost entirely; the destination's Committed is
  // only reachable after a durable source Commit, so it decides.
  const std::string dst = write("d7", {{JournalRecordType::Begin, 5, 0, 1, ""},
                                       {JournalRecordType::Prepared, 5, 9, 1, ""},
                                       {JournalRecordType::Committed, 5, 9, 1, ""}});
  const RecoveryVerdict v = recover_from_journals(path("s7_missing"), dst);
  EXPECT_EQ(v.owner, TxnOwner::Destination);
}

TEST_F(JournalTest, VerdictConsidersOnlyTheLatestTransaction) {
  // txn 5 committed long ago; txn 8 is the interrupted one.
  const std::string src = write("s8", {{JournalRecordType::Begin, 5, 0, 1, ""},
                                       {JournalRecordType::Commit, 5, 1, 1, ""},
                                       {JournalRecordType::Done, 5, 1, 1, ""},
                                       {JournalRecordType::Begin, 8, 0, 1, ""}});
  const RecoveryVerdict v = recover_from_journals(src, path("d8_missing"));
  EXPECT_EQ(v.txn_id, 8u);
  EXPECT_EQ(v.owner, TxnOwner::Source) << "txn 8 never committed";
}

TEST_F(JournalTest, RecoverDirArbitratesTheLatestTransactionWithARecord) {
  EXPECT_EQ(recover(dir_.string()).owner, TxnOwner::None) << "nothing journaled yet";
  // txn 20 completed; txn 21 was interrupted after Begin; txn 22's source
  // journal is a torn creation (zero length, no record).
  write(keyed_source_journal_name(20).c_str(), {{JournalRecordType::Begin, 20, 0, 1, ""},
                                                {JournalRecordType::Commit, 20, 3, 1, ""},
                                                {JournalRecordType::Done, 20, 3, 1, ""}});
  write(keyed_dest_journal_name(20).c_str(), {{JournalRecordType::Committed, 20, 3, 1, ""}});
  write(keyed_source_journal_name(21).c_str(), {{JournalRecordType::Begin, 21, 0, 1, ""}});
  std::ofstream(path(keyed_source_journal_name(22).c_str()));

  const RecoveryVerdict latest = recover(dir_.string());
  EXPECT_EQ(latest.txn_id, 21u) << "the torn txn 22 holds no record to arbitrate";
  EXPECT_EQ(latest.owner, TxnOwner::Source) << latest.reason;

  const RecoveryVerdict done = recover(dir_.string(), 20);
  EXPECT_EQ(done.txn_id, 20u);
  EXPECT_EQ(done.owner, TxnOwner::Destination) << done.reason;
  EXPECT_TRUE(done.completed);
}

TEST_F(JournalTest, GcSweepsCompletedPairsAndKeepsEverythingElse) {
  // txn 10: completed (source logged Done) — sweepable.
  write(keyed_source_journal_name(10).c_str(),
        {{JournalRecordType::Begin, 10, 0, 1, ""},
         {JournalRecordType::Commit, 10, 7, 1, ""},
         {JournalRecordType::Done, 10, 7, 1, ""}});
  write(keyed_dest_journal_name(10).c_str(),
        {{JournalRecordType::Begin, 10, 0, 1, ""},
         {JournalRecordType::Committed, 10, 7, 1, ""}});
  // txn 11: in doubt (Commit without Done) — recovery still needs it.
  write(keyed_source_journal_name(11).c_str(),
        {{JournalRecordType::Begin, 11, 0, 1, ""},
         {JournalRecordType::Commit, 11, 9, 1, ""}});
  // txn 12: aborted — the source still owns; the record stays.
  write(keyed_source_journal_name(12).c_str(),
        {{JournalRecordType::Begin, 12, 0, 1, ""},
         {JournalRecordType::Abort, 12, 0, 1, ""}});

  const std::vector<std::uint64_t> swept = gc_completed_txn_journals(dir_.string());
  ASSERT_EQ(swept.size(), 1u);
  EXPECT_EQ(swept[0], 10u);

  // Both of the completed pair's files are gone; the others survive.
  EXPECT_FALSE(std::filesystem::exists(dir_ / keyed_source_journal_name(10)));
  EXPECT_FALSE(std::filesystem::exists(dir_ / keyed_dest_journal_name(10)));
  EXPECT_TRUE(std::filesystem::exists(dir_ / keyed_source_journal_name(11)));
  EXPECT_TRUE(std::filesystem::exists(dir_ / keyed_source_journal_name(12)));

  const std::vector<std::uint64_t> remaining = list_journaled_txns(dir_.string());
  EXPECT_EQ(remaining, (std::vector<std::uint64_t>{11, 12}));

  // Idempotent: a second sweep finds nothing completed.
  EXPECT_TRUE(gc_completed_txn_journals(dir_.string()).empty());
}

TEST_F(JournalTest, GcOfMissingOrEmptyDirectoryIsANoOp) {
  EXPECT_TRUE(gc_completed_txn_journals((dir_ / "nope").string()).empty());
  EXPECT_TRUE(gc_completed_txn_journals(dir_.string()).empty());
}

}  // namespace
}  // namespace hpm::mig
