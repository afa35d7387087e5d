// RawClient, the hostile-client building block of the serving tests
// (serve_test, chaos_test): a loopback socket with byte-level control,
// used to send garbage, go half-open, read slowly, or reset
// mid-conversation. Not a production client; see serve::Client.
#ifndef RTGCN_TESTS_RAW_CLIENT_H_
#define RTGCN_TESTS_RAW_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace rtgcn::serve {

class RawClient {
 public:
  explicit RawClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
    }
  }
  ~RawClient() { Close(); }

  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  /// Writes raw bytes (no framing added); false on error.
  bool Send(std::string_view bytes) {
    if (fd_ < 0) return false;
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads up to the next '\n' (stripped); empty string on EOF, error, or
  /// after `timeout_ms` without a complete line.
  std::string ReadLine(int64_t timeout_ms = 2000) {
    if (fd_ < 0) return "";
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          give_up - std::chrono::steady_clock::now());
      if (left.count() <= 0) return "";
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return "";
      char chunk[512];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return "";
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Half-open: no more sends, but the socket stays readable.
  void CloseSend() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
  }

  /// Hard reset: SO_LINGER 0 + close, so the peer sees RST, not FIN.
  void Reset() {
    if (fd_ < 0) return;
    linger lg{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    Close();
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace rtgcn::serve

#endif  // RTGCN_TESTS_RAW_CLIENT_H_
