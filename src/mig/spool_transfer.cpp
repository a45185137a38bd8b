#include "mig/spool_transfer.hpp"

#include <exception>
#include <thread>

#include "mig/endpoint_util.hpp"
#include "obs/span.hpp"

namespace hpm::mig {

bool spool_transfer(const RunOptions& options, const Bytes& stream, MigrationReport& report,
                    const std::shared_ptr<net::FaultState>& fault_state,
                    std::chrono::milliseconds timeout, std::string& cause) {
  // A fresh attempt gets a fresh spool; a half-written one from a failed
  // attempt must not satisfy this attempt's reader.
  remove_spool(options.spool_path);
  net::ChannelPair channels = net::make_channel_pair(
      Transport::File, {.spool_path = options.spool_path, .timeout = timeout});
  channels.source =
      wrap_source_channel(std::move(channels.source), options, fault_state, timeout);

  // --- destination host: reads the spool and restores.
  std::exception_ptr dest_error;
  std::thread destination([&] {
    try {
      ti::TypeTable types;
      options.register_types(types);
      MigContext ctx(types);
      net::Message msg = net::recv_message(*channels.destination);
      if (msg.type != net::MsgType::State) {
        throw MigrationError("destination expected a State message");
      }
      ctx.begin_restore(std::move(msg.payload));
      run_destination_program(options, ctx, report);
    } catch (...) {
      dest_error = std::current_exception();
    }
  });

  // --- source host: write the buffered stream.
  std::exception_ptr source_error;
  double measured_tx = 0;
  try {
    obs::Span tx_span("mig.tx");
    tx_span.arg("stream_bytes", std::uint64_t{stream.size()});
    tx_span.arg("transport", std::string(net::transport_name(options.transport)));
    net::send_message(*channels.source, net::MsgType::State, stream);
    measured_tx = tx_span.finish();
  } catch (...) {
    source_error = std::current_exception();
  }
  // The orderly close drops the .done marker the reader waits for; when
  // the writer can no longer signal (injected disconnect), the reader
  // falls back on its own recv deadline, so the join cannot deadlock.
  try {
    channels.source->close();
  } catch (...) {
  }
  destination.join();
  try {
    channels.destination->close();
  } catch (...) {
  }

  if (source_error == nullptr && dest_error == nullptr) {
    report.tx_seconds = options.throttle ? measured_tx
                                         : options.link.transfer_seconds(stream.size());
    return true;
  }
  // The source's failure is primary: a destination error observed after a
  // source-side failure is usually just the cut-short spool.
  if (source_error != nullptr) {
    try {
      std::rethrow_exception(source_error);
    } catch (const Error& e) {
      cause = e.what();
      return false;
    }
    // Non-hpm exceptions escaped the protocol itself — not retryable.
  }
  cause = exception_text(dest_error);
  return false;
}

}  // namespace hpm::mig
