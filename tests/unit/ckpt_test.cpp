// Checkpoint/restart on top of the migration stream.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "apps/bitonic.hpp"
#include "ckpt/checkpoint.hpp"
#include "msrm/stream.hpp"
#include "support/crc32_reference.hpp"

namespace hpm::ckpt {
namespace {

struct Accumulator {
  int completed = 0;
  long sum = 0;
};

/// Sums i*i for i in [0, n), polling every step.
void sum_program(mig::MigContext& ctx, int n, Accumulator* out) {
  HPM_FUNCTION(ctx);
  int i;
  long acc;
  HPM_LOCAL(ctx, i);
  HPM_LOCAL(ctx, acc);
  HPM_LOCAL(ctx, n);
  HPM_BODY(ctx);
  acc = 0;
  for (i = 0; i < n; ++i) {
    HPM_POLL(ctx, 1);
    acc += static_cast<long>(i) * i;
  }
  out->completed += 1;
  out->sum = acc;
  HPM_BODY_END(ctx);
}

long expected_sum(int n) {
  long s = 0;
  for (int i = 0; i < n; ++i) s += static_cast<long>(i) * i;
  return s;
}

TEST(Checkpoint, CheckpointAndContinueProducesTheFullResult) {
  const std::string path = "/tmp/hpm_ckpt_test1.ckpt";
  std::remove(path.c_str());
  Accumulator acc;
  const CheckpointInfo info = checkpoint_run(
      [](ti::TypeTable&) {},
      [&acc](mig::MigContext& ctx) { sum_program(ctx, 100, &acc); }, path,
      /*at_poll=*/40, /*sequence=*/7);
  EXPECT_EQ(acc.completed, 1);  // the continued run finished once
  EXPECT_EQ(acc.sum, expected_sum(100));
  EXPECT_EQ(info.sequence, 7u);
  EXPECT_GT(info.state_bytes, 0u);
}

TEST(Checkpoint, RestartResumesFromTheSavedPoint) {
  const std::string path = "/tmp/hpm_ckpt_test2.ckpt";
  std::remove(path.c_str());
  Accumulator first;
  checkpoint_run([](ti::TypeTable&) {},
                 [&first](mig::MigContext& ctx) { sum_program(ctx, 64, &first); }, path, 10);
  // Restart from the file as a separate "process".
  Accumulator second;
  const CheckpointInfo info = restart_run(
      [](ti::TypeTable&) {},
      [&second](mig::MigContext& ctx) { sum_program(ctx, 64, &second); }, path);
  EXPECT_EQ(second.completed, 1);
  EXPECT_EQ(second.sum, expected_sum(64));
  EXPECT_EQ(info.source_arch, "native");
}

TEST(Checkpoint, RestartIsRepeatable) {
  // A checkpoint is immutable: restarting twice yields the same result.
  const std::string path = "/tmp/hpm_ckpt_test3.ckpt";
  std::remove(path.c_str());
  Accumulator a;
  checkpoint_run([](ti::TypeTable&) {},
                 [&a](mig::MigContext& ctx) { sum_program(ctx, 30, &a); }, path, 5);
  for (int round = 0; round < 2; ++round) {
    Accumulator r;
    restart_run([](ti::TypeTable&) {},
                [&r](mig::MigContext& ctx) { sum_program(ctx, 30, &r); }, path);
    EXPECT_EQ(r.sum, expected_sum(30));
  }
}

TEST(Checkpoint, InspectReadsThePreambleOnly) {
  const std::string path = "/tmp/hpm_ckpt_test4.ckpt";
  std::remove(path.c_str());
  Accumulator acc;
  checkpoint_run([](ti::TypeTable&) {},
                 [&acc](mig::MigContext& ctx) { sum_program(ctx, 20, &acc); }, path, 3,
                 /*sequence=*/99);
  const CheckpointInfo info = inspect(path);
  EXPECT_EQ(info.sequence, 99u);
  EXPECT_GT(info.state_bytes, 0u);
  EXPECT_EQ(info.source_arch, "native");
}

TEST(Checkpoint, MissingAndCorruptFilesAreRejected) {
  EXPECT_THROW(inspect("/tmp/hpm_ckpt_does_not_exist.ckpt"), Error);

  const std::string path = "/tmp/hpm_ckpt_test5.ckpt";
  std::remove(path.c_str());
  Accumulator acc;
  checkpoint_run([](ti::TypeTable&) {},
                 [&acc](mig::MigContext& ctx) { sum_program(ctx, 20, &acc); }, path, 3);
  // Flip a byte inside the embedded stream: the seal must catch it.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 60, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, 60, SEEK_SET);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);
  EXPECT_THROW(inspect(path), WireError);
  Accumulator r;
  EXPECT_THROW(restart_run([](ti::TypeTable&) {},
                           [&r](mig::MigContext& ctx) { sum_program(ctx, 20, &r); }, path),
               WireError);
}

TEST(Checkpoint, ADirectoryOrAMissingPathIsATypedError) {
  // A directory opens, and its "size" is no file length: the read must
  // refuse it by type, not size a buffer from it.
  const std::string dir = "/tmp/hpm_ckpt_a_directory.ckpt";
  std::filesystem::create_directories(dir);
  const std::string missing = "/tmp/hpm_ckpt_never_written.ckpt";
  std::remove(missing.c_str());
  for (const std::string& path : {dir, missing}) {
    EXPECT_THROW(inspect(path), Error) << path;
    Accumulator acc;
    EXPECT_THROW(restart_run([](ti::TypeTable&) {},
                             [&acc](mig::MigContext& ctx) { sum_program(ctx, 20, &acc); },
                             path),
                 Error)
        << path;
    EXPECT_EQ(acc.completed, 0) << path;
  }
  std::filesystem::remove(dir);
}

TEST(Checkpoint, AFileFromBeforeDigestV2IsATypedError) {
  // Rewrite a fresh checkpoint the way the previous format stored it:
  // stream header version 2 and the 5-byte CRC-32 trailer in place of
  // the 9-byte digest one. Both readers must refuse it with a typed error.
  const std::string path = "/tmp/hpm_ckpt_test7.ckpt";
  std::remove(path.c_str());
  Accumulator acc;
  checkpoint_run([](ti::TypeTable&) {},
                 [&acc](mig::MigContext& ctx) { sum_program(ctx, 20, &acc); }, path, 3);
  Bytes file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  constexpr std::size_t kPreamble = 4 + 8 + 4;  // magic | sequence | state length
  ASSERT_GT(file.size(), kPreamble + msrm::kTrailerBytes);
  file.resize(file.size() - msrm::kTrailerBytes);
  file[kPreamble + 4] = 0;  // the stream's u16 version, after its u32 magic
  file[kPreamble + 5] = 2;
  const std::uint32_t crc =
      test::crc32_reference(file.data() + kPreamble, file.size() - kPreamble);
  file.push_back(msrm::kTrailerTag);
  for (int i = 3; i >= 0; --i) file.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  const auto len = static_cast<std::uint32_t>(file.size() - kPreamble);
  for (int i = 0; i < 4; ++i) file[12 + i] = static_cast<std::uint8_t>(len >> (8 * (3 - i)));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
  }
  EXPECT_THROW(inspect(path), Error);
  Accumulator r;
  EXPECT_THROW(restart_run([](ti::TypeTable&) {},
                           [&r](mig::MigContext& ctx) { sum_program(ctx, 20, &r); }, path),
               Error);
  EXPECT_EQ(r.completed, 0);
}

TEST(Checkpoint, ProgramFinishingBeforeTheCheckpointIsAnError) {
  const std::string path = "/tmp/hpm_ckpt_test6.ckpt";
  Accumulator acc;
  EXPECT_THROW(
      checkpoint_run([](ti::TypeTable&) {},
                     [&acc](mig::MigContext& ctx) { sum_program(ctx, 3, &acc); }, path,
                     /*at_poll=*/1000),
      MigrationError);
}

TEST(Checkpoint, WorksForTheBitonicWorkload) {
  const std::string path = "/tmp/hpm_ckpt_bitonic.ckpt";
  std::remove(path.c_str());
  apps::BitonicResult during;
  checkpoint_run(apps::bitonic_register_types,
                 [&during](mig::MigContext& ctx) {
                   apps::bitonic_program(ctx, 5, 3, &during);
                 },
                 path, /*at_poll=*/100);
  EXPECT_TRUE(during.ok());
  apps::BitonicResult restarted;
  restart_run(apps::bitonic_register_types,
              [&restarted](mig::MigContext& ctx) {
                apps::bitonic_program(ctx, 5, 3, &restarted);
              },
              path);
  EXPECT_TRUE(restarted.ok());
}

}  // namespace
}  // namespace hpm::ckpt
