#include "net/factory.hpp"

#include "common/error.hpp"
#include "net/file_channel.hpp"
#include "net/mem_channel.hpp"

namespace hpm::net {

const char* transport_name(Transport transport) noexcept {
  switch (transport) {
    case Transport::Memory: return "memory";
    case Transport::Socket: return "socket";
    case Transport::File: return "file";
  }
  return "?";
}

ChannelPair make_channel_pair(Transport transport, const ChannelOptions& options) {
  ChannelPair pair;
  switch (transport) {
    case Transport::Memory: {
      auto [a, b] = MemChannel::make_pair();
      pair.source = std::move(a);
      pair.destination = std::move(b);
      break;
    }
    case Transport::Socket: {
      pair.listener = std::make_unique<SocketListener>();
      // Dial first; the loopback accept queue holds the connection until
      // accept() picks it up, so ordering cannot deadlock.
      pair.source = connect_to(pair.listener->port());
      pair.destination = pair.listener->accept();
      break;
    }
    case Transport::File: {
      pair.source = std::make_unique<FileWriterChannel>(options.spool_path);
      pair.destination = std::make_unique<FileReaderChannel>(options.spool_path);
      break;
    }
    default:
      throw NetError("make_channel_pair: unknown transport");
  }
  if (options.timeout.count() > 0) {
    pair.source->set_timeout(options.timeout);
    pair.destination->set_timeout(options.timeout);
  }
  return pair;
}

}  // namespace hpm::net
