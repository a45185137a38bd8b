// Layer-2 microbenchmarks: canonical encode/decode throughput and
// per-architecture machine-specific conversion — the Encode-and-copy /
// Decode-and-copy term of the §4.2 model in isolation — plus the bulk
// fast path (one put_bytes/get_bytes memcpy of a pointer-free primitive
// array, the same-architecture PNEW body) against the per-element
// canonical loop it replaces — and the one integrity hash every migration
// pays per byte (the multi-lane StreamDigest) against a memcpy of the same
// buffer.
//
// Writes BENCH_xdr.json (hpm-bench-v1; override with --json PATH). With
// --smoke, skips google-benchmark and times one small encode/decode pass.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/digest.hpp"
#include "emit.hpp"
#include "xdr/value.hpp"

namespace {

using namespace hpm::xdr;

void BM_encode_doubles_canonical(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = i * 1.5;
  for (auto _ : state) {
    Encoder enc(n * 8);
    for (double d : data) enc.put_f64(d);
    benchmark::DoNotOptimize(enc.bytes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n * 8);
}
BENCHMARK(BM_encode_doubles_canonical)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_decode_doubles_canonical(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Encoder enc(n * 8);
  for (std::size_t i = 0; i < n; ++i) enc.put_f64(i * 1.5);
  for (auto _ : state) {
    Decoder dec(enc.bytes());
    double sink = 0;
    for (std::size_t i = 0; i < n; ++i) sink += dec.get_f64();
    benchmark::DoNotOptimize(sink);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n * 8);
}
BENCHMARK(BM_decode_doubles_canonical)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_encode_doubles_bulk(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = i * 1.5;
  for (auto _ : state) {
    Encoder enc(n * 8);
    enc.put_bytes(reinterpret_cast<const std::uint8_t*>(data.data()), n * 8);
    benchmark::DoNotOptimize(enc.bytes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n * 8);
}
BENCHMARK(BM_encode_doubles_bulk)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_decode_doubles_bulk(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Encoder enc(n * 8);
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = i * 1.5;
  enc.put_bytes(reinterpret_cast<const std::uint8_t*>(data.data()), n * 8);
  std::vector<double> out(n);
  for (auto _ : state) {
    Decoder dec(enc.bytes());
    dec.get_bytes(reinterpret_cast<std::uint8_t*>(out.data()), n * 8);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n * 8);
}
BENCHMARK(BM_decode_doubles_bulk)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_prim_roundtrip_per_arch(benchmark::State& state) {
  const ArchDescriptor& arch = arch_by_name(arch_names()[state.range(0)]);
  std::uint8_t buf[8] = {};
  const PrimValue v = PrimValue::of_signed(PrimKind::Int, -123456);
  for (auto _ : state) {
    write_raw(buf, arch, PrimKind::Int, v);
    benchmark::DoNotOptimize(read_raw(buf, arch, PrimKind::Int));
  }
  state.SetLabel(std::string(arch.name));
}
BENCHMARK(BM_prim_roundtrip_per_arch)->DenseRange(0, 6);

void BM_pointer_cell_per_arch(benchmark::State& state) {
  const ArchDescriptor& arch = arch_by_name(arch_names()[state.range(0)]);
  std::uint8_t buf[8] = {};
  for (auto _ : state) {
    write_pointer_cell(buf, arch, 0xBEEF);
    benchmark::DoNotOptimize(read_pointer_cell(buf, arch));
  }
  state.SetLabel(std::string(arch.name));
}
BENCHMARK(BM_pointer_cell_per_arch)->DenseRange(0, 6);

/// One measured encode+decode pass of `n` doubles through the canonical
/// wire format; records throughput rows and (via Encoder::take / the
/// Decoder destructor) the xdr.* registry counters.
void measured_pass(hpm::bench::BenchReport& report, std::size_t n) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  Encoder enc(n * 8);
  for (std::size_t i = 0; i < n; ++i) enc.put_f64(static_cast<double>(i) * 1.5);
  const hpm::Bytes wire = enc.take();
  const double encode_s = std::chrono::duration<double>(Clock::now() - t0).count();

  const auto t1 = Clock::now();
  double sink = 0;
  {
    Decoder dec(wire);
    for (std::size_t i = 0; i < n; ++i) sink += dec.get_f64();
  }
  const double decode_s = std::chrono::duration<double>(Clock::now() - t1).count();
  benchmark::DoNotOptimize(sink);

  const double bytes = static_cast<double>(wire.size());
  report.add("encode.doubles.bytes_per_second", bytes / encode_s, "bytes/second");
  report.add("decode.doubles.bytes_per_second", bytes / decode_s, "bytes/second");
  report.add("stream.bytes", bytes, "bytes");
}

/// The bulk fast path against the canonical loop: the same n doubles,
/// best-of-5 each way, and the resulting speedup row the acceptance gate
/// reads. The bulk path is a single put_bytes — the exact body a
/// same-architecture kBodyRaw PNEW carries.
void measured_bulk_pass(hpm::bench::BenchReport& report, std::size_t n) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<double>(i) * 1.5;
  double canonical_s = 1e9;
  double bulk_s = 1e9;
  for (int rep = 0; rep < 5; ++rep) {
    {
      const auto t0 = Clock::now();
      Encoder enc(n * 8);
      for (double d : data) enc.put_f64(d);
      benchmark::DoNotOptimize(enc.bytes().data());
      canonical_s = std::min(canonical_s,
                             std::chrono::duration<double>(Clock::now() - t0).count());
    }
    {
      const auto t0 = Clock::now();
      Encoder enc(n * 8);
      enc.put_bytes(reinterpret_cast<const std::uint8_t*>(data.data()), n * 8);
      benchmark::DoNotOptimize(enc.bytes().data());
      bulk_s = std::min(bulk_s, std::chrono::duration<double>(Clock::now() - t0).count());
    }
  }
  const double bytes = static_cast<double>(n) * 8;
  report.add("encode.doubles.bulk_bytes_per_second", bytes / bulk_s, "bytes/second");
  report.add("encode.doubles.bulk_speedup", canonical_s / bulk_s, "ratio");
  std::printf("bulk encode fast path: %.2fx over canonical (%zu doubles)\n",
              canonical_s / bulk_s, n);
}

/// Integrity-pass throughput over one `n`-byte buffer, best-of-5 each:
/// the stream digest (frame and record seals, trailer seal, end-to-end
/// digest and chunk address: four independent multiply lanes), and
/// memcpy as the memory-speed reference it is read against.
void measured_integrity_pass(hpm::bench::BenchReport& report, std::size_t n) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::uint8_t> src(n);
  std::uint32_t x = 1;
  for (std::uint8_t& b : src) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  std::vector<std::uint8_t> dst(n);
  auto best_of_5 = [](auto&& pass) {
    double best = 1e9;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      pass();
      best = std::min(best, std::chrono::duration<double>(Clock::now() - t0).count());
    }
    return best;
  };
  const double memcpy_s = best_of_5([&] {
    std::memcpy(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  });
  const double digest_s =
      best_of_5([&] { benchmark::DoNotOptimize(hpm::StreamDigest::of(src)); });
  const double bytes = static_cast<double>(n);
  report.add("integrity.memcpy.bytes_per_second", bytes / memcpy_s, "bytes/second");
  report.add("integrity.stream_digest.bytes_per_second", bytes / digest_s, "bytes/second");
  std::printf(
      "integrity over %zu bytes: memcpy %.2f ms, stream digest %.2f ms\n", n,
      memcpy_s * 1e3, digest_s * 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  const hpm::bench::BenchArgs args =
      hpm::bench::parse_bench_args(argc, argv, "BENCH_xdr.json");
  hpm::bench::BenchReport report("xdr_throughput", args.smoke);
  if (!args.smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  // Both modes take the measured pass, so the JSON always carries real
  // throughput rows plus the xdr.encode/decode stream counters.
  measured_pass(report, args.smoke ? (1u << 12) : (1u << 20));
  measured_bulk_pass(report, args.smoke ? (1u << 14) : (1u << 20));
  measured_integrity_pass(report, args.smoke ? (1u << 20) : (8u << 20));
  report.add_percentiles("xdr.encode.stream_bytes");
  return report.write(args.json_path) ? 0 : 1;
}
