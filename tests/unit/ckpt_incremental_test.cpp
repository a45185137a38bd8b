// Incremental checkpointing: delta capture, chain merge, stream
// synthesis, restart.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "ckpt/incremental.hpp"
#include "mig/annotate.hpp"
#include "msrm/stream.hpp"
#include "support/crc32_reference.hpp"
#include "ti/describe.hpp"

namespace hpm::ckpt {
namespace {

struct Cell {
  long value;
  Cell* next;
};

void register_cell(ti::TypeTable& t) {
  ti::StructBuilder<Cell> b(t, "cell");
  HPM_TI_FIELD(b, Cell, value);
  HPM_TI_FIELD(b, Cell, next);
  b.commit();
}

void wipe_chain(const std::string& prefix, int up_to = 64) {
  for (int i = 0; i <= up_to; ++i) {
    std::remove((prefix + "." + std::to_string(i)).c_str());
  }
}

/// Mutates one element of a large array per iteration and grows a small
/// list every 8th iteration — most blocks are unchanged between polls.
void mutating_program(mig::MigContext& ctx, int steps, long* out) {
  HPM_FUNCTION(ctx);
  double* big;
  Cell* head;
  int i;
  long acc;
  HPM_LOCAL(ctx, big);
  HPM_LOCAL(ctx, head);
  HPM_LOCAL(ctx, i);
  HPM_LOCAL(ctx, acc);
  HPM_LOCAL(ctx, steps);
  HPM_BODY(ctx);
  big = ctx.heap_alloc<double>(1000, "big");
  head = nullptr;
  acc = 0;
  for (i = 0; i < steps; ++i) {
    HPM_POLL(ctx, 1);
    big[i % 1000] += 1.0;
    acc += static_cast<long>(big[i % 1000]);
    if (i % 8 == 7) {
      Cell* c = ctx.heap_alloc<Cell>(1, "cell");
      c->value = i;
      c->next = head;
      head = c;
    }
  }
  while (head != nullptr) {
    acc += head->value;
    Cell* dead = head;
    head = head->next;
    ctx.heap_free(dead);
  }
  *out = acc;
  HPM_BODY_END(ctx);
}

long run_reference(int steps) {
  ti::TypeTable t;
  register_cell(t);
  mig::MigContext ctx(t);
  long out = 0;
  mutating_program(ctx, steps, &out);
  return out;
}

TEST(Incremental, ColdDataIsNotRewrittenInDeltas) {
  // Three large arrays; only the first is ever touched after
  // initialization. Deltas must carry the hot array and the mutating
  // locals but none of the cold arrays.
  const std::string prefix = "/tmp/hpm_inc_small";
  wipe_chain(prefix);
  ti::TypeTable t;
  register_cell(t);
  mig::MigContext ctx(t);
  IncrementalCheckpointer checkpointer(prefix);
  std::vector<IncrementalStats> captures;
  ctx.set_poll_observer([&](mig::MigContext& c) {
    if (c.poll_count() % 8 == 1) captures.push_back(checkpointer.capture(c));
  });

  auto program = [](mig::MigContext& c, int steps) {
    HPM_FUNCTION(c);
    double *hot, *cold1, *cold2;
    int i;
    HPM_LOCAL(c, hot);
    HPM_LOCAL(c, cold1);
    HPM_LOCAL(c, cold2);
    HPM_LOCAL(c, i);
    HPM_LOCAL(c, steps);
    HPM_BODY(c);
    hot = c.heap_alloc<double>(2000, "hot");
    cold1 = c.heap_alloc<double>(2000, "cold1");
    cold2 = c.heap_alloc<double>(2000, "cold2");
    for (i = 0; i < 2000; ++i) cold1[i] = cold2[i] = i;
    for (i = 0; i < steps; ++i) {
      HPM_POLL(c, 1);
      hot[i % 2000] += 1.0;
    }
    c.heap_free(hot);
    c.heap_free(cold1);
    c.heap_free(cold2);
    HPM_BODY_END(c);
  };
  program(ctx, 32);

  ASSERT_GE(captures.size(), 3u);
  const IncrementalStats& base = captures[0];
  EXPECT_EQ(base.sequence, 0u);
  EXPECT_EQ(base.written_blocks, base.total_blocks);  // full base
  for (std::size_t i = 1; i < captures.size(); ++i) {
    // Delta: hot array + the two changing scalars (i and possibly loop
    // label side effects) — the two cold 16 KB arrays stay home.
    EXPECT_LT(captures[i].written_blocks, base.written_blocks) << "delta " << i;
    EXPECT_LT(captures[i].file_bytes, base.file_bytes - 2 * 16000) << "delta " << i;
    EXPECT_EQ(captures[i].freed_blocks, 0u);
  }
}

TEST(Incremental, RestartFromEachCaptureResumesCorrectly) {
  const std::string prefix = "/tmp/hpm_inc_restart";
  wipe_chain(prefix);
  const long expected = run_reference(50);

  ti::TypeTable t;
  register_cell(t);
  mig::MigContext ctx(t);
  IncrementalCheckpointer checkpointer(prefix);
  std::uint64_t captures = 0;
  ctx.set_poll_observer([&](mig::MigContext& c) {
    if (c.poll_count() % 10 == 5) {
      checkpointer.capture(c);
      ++captures;
    }
  });
  long out = 0;
  mutating_program(ctx, 50, &out);
  EXPECT_EQ(out, expected);
  ASSERT_GE(captures, 3u);

  // Restart from the base alone and from every prefix of the chain: each
  // resumes mid-loop and must converge to the same final result.
  for (std::uint64_t last = 0; last < captures; ++last) {
    long revived = 0;
    restart_incremental(register_cell,
                        [&revived](mig::MigContext& c) { mutating_program(c, 50, &revived); },
                        prefix, last);
    EXPECT_EQ(revived, expected) << "restart from seq " << last;
  }
}

TEST(Incremental, FreedBlocksDisappearFromTheChain) {
  const std::string prefix = "/tmp/hpm_inc_freed";
  wipe_chain(prefix);
  ti::TypeTable t;
  register_cell(t);
  mig::MigContext ctx(t);
  IncrementalCheckpointer checkpointer(prefix);

  auto program = [&checkpointer](mig::MigContext& c, int* phase) {
    HPM_FUNCTION(c);
    Cell* keep;
    Cell* temp;
    HPM_LOCAL(c, keep);
    HPM_LOCAL(c, temp);
    HPM_BODY(c);
    keep = c.heap_alloc<Cell>(1, "keep");
    keep->value = 1;
    keep->next = nullptr;
    temp = c.heap_alloc<Cell>(1, "temp");
    temp->value = 2;
    temp->next = nullptr;
    HPM_POLL(c, 1);  // capture 0: both alive
    *phase = 1;
    c.heap_free(temp);
    temp = nullptr;
    HPM_POLL(c, 2);  // capture 1: temp freed
    *phase = 2;
    c.heap_free(keep);
    HPM_BODY_END(c);
  };
  int phase = 0;
  ctx.set_poll_observer([&](mig::MigContext& c) { checkpointer.capture(c); });
  program(ctx, &phase);
  EXPECT_EQ(phase, 2);

  // The merged chain at seq 1 must not contain the freed block: restart
  // succeeds and the revived process only frees `keep`.
  int revived_phase = 0;
  restart_incremental(register_cell,
                      [&](mig::MigContext& c) { program(c, &revived_phase); }, prefix, 1);
  EXPECT_EQ(revived_phase, 2);
}

TEST(Incremental, SynthesizedStreamIsAValidMigrationStream) {
  const std::string prefix = "/tmp/hpm_inc_synth";
  wipe_chain(prefix);
  ti::TypeTable t;
  register_cell(t);
  mig::MigContext ctx(t);
  IncrementalCheckpointer checkpointer(prefix);
  ctx.set_poll_observer([&](mig::MigContext& c) {
    if (c.poll_count() == 7) checkpointer.capture(c);
  });
  long out = 0;
  mutating_program(ctx, 20, &out);
  const Bytes stream = synthesize_stream(prefix, 0);
  EXPECT_GT(stream.size(), 0u);
  // It must decode through the ordinary restoration machinery.
  ti::TypeTable t2;
  register_cell(t2);
  mig::MigContext dst(t2);
  EXPECT_NO_THROW(dst.begin_restore(stream));
}

TEST(Incremental, ChainOrderIsEnforced) {
  const std::string prefix = "/tmp/hpm_inc_order";
  wipe_chain(prefix);
  ti::TypeTable t;
  register_cell(t);
  mig::MigContext ctx(t);
  IncrementalCheckpointer checkpointer(prefix);
  ctx.set_poll_observer([&](mig::MigContext& c) {
    if (c.poll_count() <= 2) checkpointer.capture(c);
  });
  long out = 0;
  mutating_program(ctx, 10, &out);
  // Swap the two files: seq validation must reject the chain.
  std::rename((prefix + ".0").c_str(), (prefix + ".tmp").c_str());
  std::rename((prefix + ".1").c_str(), (prefix + ".0").c_str());
  std::rename((prefix + ".tmp").c_str(), (prefix + ".1").c_str());
  EXPECT_THROW(synthesize_stream(prefix, 1), WireError);
}

TEST(Incremental, AFileFromBeforeDigestV2IsATypedError) {
  // Rewrite a fresh base capture the way the previous format stored it:
  // HCKI version 1 and the 5-byte CRC-32 trailer in place of the 9-byte
  // digest one. The chain reader must refuse it with a typed error.
  const std::string prefix = "/tmp/hpm_inc_prev";
  wipe_chain(prefix);
  ti::TypeTable t;
  register_cell(t);
  mig::MigContext ctx(t);
  IncrementalCheckpointer checkpointer(prefix);
  ctx.set_poll_observer([&](mig::MigContext& c) {
    if (c.poll_count() == 3) checkpointer.capture(c);
  });
  long out = 0;
  mutating_program(ctx, 10, &out);
  const std::string path = prefix + ".0";
  Bytes file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_NO_THROW(synthesize_stream(prefix, 0));
  ASSERT_GT(file.size(), 6 + msrm::kTrailerBytes);
  file.resize(file.size() - msrm::kTrailerBytes);
  file[4] = 0;  // u16 version, after the u32 'HCKI'
  file[5] = 1;
  const std::uint32_t crc = test::crc32_reference(file.data(), file.size());
  file.push_back(msrm::kTrailerTag);
  for (int i = 3; i >= 0; --i) file.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  {
    std::ofstream out_file(path, std::ios::binary | std::ios::trunc);
    out_file.write(reinterpret_cast<const char*>(file.data()),
                   static_cast<std::streamsize>(file.size()));
  }
  EXPECT_THROW(synthesize_stream(prefix, 0), Error);
  wipe_chain(prefix);
}

TEST(Incremental, MissingChainFileIsReported) {
  EXPECT_THROW(synthesize_stream("/tmp/hpm_inc_missing", 0), Error);
  long out = 0;
  auto program = [&out](mig::MigContext& c) { mutating_program(c, 10, &out); };
  EXPECT_THROW(restart_incremental(register_cell, program, "/tmp/hpm_inc_missing", 0), Error);
}

TEST(Incremental, ADirectoryNamedLikeAChainFileIsATypedError) {
  const std::string prefix = "/tmp/hpm_inc_dir_named";
  std::filesystem::create_directories(prefix + ".0");
  EXPECT_THROW(synthesize_stream(prefix, 0), Error);
  long out = 0;
  auto program = [&out](mig::MigContext& c) { mutating_program(c, 10, &out); };
  EXPECT_THROW(restart_incremental(register_cell, program, prefix, 0), Error);
  std::filesystem::remove(prefix + ".0");
}

}  // namespace
}  // namespace hpm::ckpt
