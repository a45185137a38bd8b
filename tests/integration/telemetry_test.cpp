// End-to-end telemetry: a real migration must produce a MigrationReport
// whose metrics snapshot is internally consistent — in particular the
// frame-layer byte counter must equal the transport-layer byte counter
// for every transport, since all channel traffic flows through
// send_message()/recv_message().
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <vector>

#include "hpm/migrate.hpp"
#include "net/factory.hpp"
#include "net/message.hpp"
#include "obs/span.hpp"

namespace hpm::mig {
namespace {

void counting_program(MigContext& ctx, int n, std::atomic<int>* completions) {
  HPM_FUNCTION(ctx);
  int i;
  double acc;
  HPM_LOCAL(ctx, i);
  HPM_LOCAL(ctx, n);
  HPM_LOCAL(ctx, acc);
  HPM_BODY(ctx);
  acc = 0;
  for (i = 0; i < n; ++i) {
    HPM_POLL(ctx, 1);
    acc += i;
  }
  completions->fetch_add(1);
  HPM_BODY_END(ctx);
}

MigrationReport migrate_over(Transport transport) {
  std::atomic<int> completions{0};
  RunOptions options;
  options.register_types = [](ti::TypeTable&) {};
  options.program = [&completions](MigContext& ctx) {
    counting_program(ctx, 10, &completions);
  };
  options.migrate_at_poll = 5;
  options.transport = transport;
  options.spool_path = std::string("/tmp/hpm_telemetry_") +
                       net::transport_name(transport) + ".bin";
  const MigrationReport report = run_migration(options);
  EXPECT_TRUE(report.migrated);
  EXPECT_EQ(completions.load(), 1);
  return report;
}

const char* channel_bytes_sent_metric(Transport transport) {
  switch (transport) {
    case Transport::Memory: return "net.mem.bytes_sent";
    case Transport::Socket: return "net.socket.bytes_sent";
    case Transport::File: return "net.file.bytes_sent";
  }
  return "?";
}

TEST(Telemetry, WireBytesMatchChannelBytesAcrossTransports) {
  for (const Transport transport :
       {Transport::Memory, Transport::Socket, Transport::File}) {
    SCOPED_TRACE(net::transport_name(transport));
    const MigrationReport report = migrate_over(transport);
    // The run's delta-snapshot: every byte the frame layer sent went
    // through exactly one channel, so the two layers must agree.
    const std::uint64_t frame_bytes = report.metrics.counter("net.frames.bytes_sent");
    const std::uint64_t channel_bytes =
        report.metrics.counter(channel_bytes_sent_metric(transport));
    EXPECT_GT(frame_bytes, 0u);
    EXPECT_EQ(frame_bytes, channel_bytes);
    // Frame bytes = payloads + 9 bytes framing (5-byte header + 4-byte seal)
    // per frame; the State frame alone carries the whole migration stream.
    const std::uint64_t frames = report.metrics.counter("net.frames.sent");
    EXPECT_GT(frames, 0u);
    EXPECT_GE(frame_bytes, report.stream_bytes + frames * 9);
  }
}

TEST(Telemetry, ReportTimingsAreSpanDerived) {
  const MigrationReport report = migrate_over(Transport::Memory);
  // Phase timings come from the mig.collect / mig.tx / mig.restore spans;
  // their histograms must have recorded samples in this run's delta.
  EXPECT_GT(report.collect_seconds, 0.0);
  EXPECT_GT(report.restore_seconds, 0.0);
  ASSERT_NE(report.metrics.histogram("trace.mig.collect"), nullptr);
  ASSERT_NE(report.metrics.histogram("trace.mig.restore"), nullptr);
  ASSERT_NE(report.metrics.histogram("trace.mig.run"), nullptr);
  EXPECT_GE(report.metrics.histogram("trace.mig.collect")->count, 1u);
  // The pipeline counters rode along in the snapshot.
  EXPECT_GT(report.metrics.counter("msr.msrlt.searches"), 0u);
  EXPECT_GT(report.metrics.counter("mig.coordinator.attempts"), 0u);
  EXPECT_GT(report.metrics.counter("xdr.encode.streams"), 0u);
}

TEST(Telemetry, ChromeTraceExportsAfterMigration) {
  migrate_over(Transport::Memory);
  const std::string path = "/tmp/hpm_telemetry_trace.json";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::Tracer::process().write_chrome_trace(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 16, '\0');
  const std::size_t got = std::fread(content.data(), 1, content.size(), f);
  std::fclose(f);
  content.resize(got);
  EXPECT_NE(content.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(content.find("\"name\":\"mig.collect\""), std::string::npos);
  EXPECT_NE(content.find("\"name\":\"mig.restore\""), std::string::npos);
}

TEST(Telemetry, FactoryPairsAreWiredBothWays) {
  // Satellite check for net::make_channel_pair: each transport yields a
  // usable source->destination path.
  for (const Transport transport :
       {Transport::Memory, Transport::Socket, Transport::File}) {
    SCOPED_TRACE(net::transport_name(transport));
    net::ChannelOptions channel_options;
    channel_options.spool_path = std::string("/tmp/hpm_factory_") +
                                 net::transport_name(transport) + ".bin";
    net::ChannelPair pair = net::make_channel_pair(transport, channel_options);
    ASSERT_NE(pair.source, nullptr);
    ASSERT_NE(pair.destination, nullptr);
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
    net::send_message(*pair.source, net::MsgType::State, payload);
    const net::Message msg = net::recv_message(*pair.destination);
    EXPECT_EQ(msg.type, net::MsgType::State);
    EXPECT_EQ(msg.payload, payload);
  }
}

}  // namespace
}  // namespace hpm::mig
