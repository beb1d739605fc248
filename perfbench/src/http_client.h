// A closed-loop HTTP/1.1 client over keep-alive loopback connections.
//
// One thread drives every connection with poll(): each connection sends
// its next request only when its previous response has ended, so the
// client adds no threads and the loop stays closed.
#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "reference.h"
#include "server/net/socket.h"

namespace perfbench {

/// One POST /query exchange, times in ms from the request's first byte sent.
struct HttpExchange {
  int status = 0;          ///< 0 when the transport failed
  std::string body;        ///< the de-chunked NDJSON body
  size_t wire_bytes = 0;   ///< response bytes as received, head included
  double ttfb_ms = 0.0;    ///< to the status line
  double ttfa_ms = -1.0;   ///< to the first complete answer line; -1 if none
  double ttk_ms = 0.0;     ///< to the end of the stream
};

class ClosedLoopClient {
 public:
  ClosedLoopClient(uint16_t port, size_t connections);

  bool ok() const { return ok_; }

  /// Sends every request body in order over the connections and returns
  /// the exchanges in the same order.
  std::vector<HttpExchange> Run(const std::vector<std::string>& bodies);

 private:
  struct Conn {
    banks::server::net::Socket socket;
    std::string carry;
    size_t request = 0;
    bool busy = false;
    Clock::time_point sent;
    enum class State { kHead, kChunkSize, kChunkData, kChunkEnd, kFixed };
    State state = State::kHead;
    size_t remaining = 0;
  };

  /// Consumes what `conn` has buffered; true once its response has ended.
  bool Advance(Conn* conn, HttpExchange* ex, Clock::time_point now);

  std::vector<Conn> conns_;
  bool ok_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
