#ifndef THOR_NET_SOCKET_H_
#define THOR_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <utility>

#include "src/util/deadline.h"
#include "src/util/status.h"

namespace thor::net {

/// Installs SIG_IGN for SIGPIPE process-wide (idempotent). A peer that
/// closes its read side must surface as a typed kClosed write result, never
/// as a process-killing signal; every networked entry point (thord, the
/// clients, the test fixtures) calls this before touching a socket.
void IgnoreSigPipe();

/// \brief Move-only RAII wrapper over a file descriptor.
///
/// Nothing more: readiness, buffering, and protocol live in EventLoop /
/// Connection. A default-constructed Socket holds no fd (`valid()` false).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Relinquishes ownership without closing.
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

  void Close();

 private:
  int fd_ = -1;
};

/// Outcome class of one read/write attempt on a non-blocking socket.
enum class IoStatus {
  kOk = 0,     ///< some bytes moved
  kWouldBlock, ///< EAGAIN/EWOULDBLOCK — wait for readiness
  kClosed,     ///< orderly close: EOF on read; EPIPE/ECONNRESET on write
  kError,      ///< anything else (errno preserved)
};

const char* IoStatusName(IoStatus status);

struct IoResult {
  IoStatus status = IoStatus::kOk;
  size_t bytes = 0;  ///< bytes moved when kOk (reads: 0 never kOk)
  int err = 0;       ///< errno when kError (and the closing errno on kClosed)
};

/// One read(2) into `buf`. EOF and peer resets map to kClosed — the typed
/// "connection closed" outcome the serving layer treats as a normal client
/// departure, not an error.
IoResult ReadSome(int fd, char* buf, size_t len);

/// One write(2) (partial writes surface as kOk with `bytes` short). EPIPE
/// and ECONNRESET map to kClosed; with SIGPIPE ignored these are the only
/// way a vanished peer shows up on the write path.
IoResult WriteSome(int fd, const char* buf, size_t len);

Status SetNonBlocking(int fd);

/// Disables Nagle; request/response traffic must not wait out the delayed
/// ACK timer. Applied to connected and accepted sockets alike.
void SetNoDelay(int fd);

/// Opens a non-blocking loopback TCP listener on `port` (0 = ephemeral;
/// read the bound port back with LocalPort). SO_REUSEADDR set, TCP_NODELAY
/// inherited by accepted sockets via ListenTcp callers. The listen(2)
/// backlog is 128.
Result<Socket> ListenTcp(uint16_t port);

/// Port a bound socket actually listens on.
Result<uint16_t> LocalPort(const Socket& socket);

/// Blocking-with-deadline TCP connect to `host`:`port`. `host` may be an
/// IPv4 literal, an IPv6 literal, or a hostname — hostnames resolve via
/// getaddrinfo and every returned address is attempted in resolver order
/// under the same deadline until one connects. The returned socket is
/// non-blocking with TCP_NODELAY set. Connection refusal, resolution
/// failure, and timeouts are typed Status errors (kNotFound /
/// kDeadlineExceeded).
Result<Socket> ConnectTcp(const std::string& host, uint16_t port,
                          const Deadline& deadline = {});

/// Waits until `fd` is readable (`for_write` false) or writable, honoring
/// `deadline`. OK on readiness; kDeadlineExceeded on expiry.
Status WaitReady(int fd, bool for_write, const Deadline& deadline);

}  // namespace thor::net

#endif  // THOR_NET_SOCKET_H_
