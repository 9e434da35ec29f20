// raw-socket-access: outside src/net the POSIX socket API is off limits —
// the process's network surface must stay auditable from src/net/socket.cpp.
// Lints as src/service/raw_socket.cc, so the rule is in scope.

#include <sys/socket.h>  // EXPECT(raw-socket-access)
#include <netinet/in.h>  // EXPECT(raw-socket-access)
#include <arpa/inet.h>   // EXPECT(raw-socket-access)
#include <sys/un.h>      // EXPECT(raw-socket-access)
#include <netdb.h>       // EXPECT(raw-socket-access)

int bad_raw_calls() {
  int fd = ::socket(2, 1, 0);                // EXPECT(raw-socket-access)
  sockaddr addr{};
  if (bind(fd, &addr, sizeof(addr)) != 0) {  // EXPECT(raw-socket-access)
    return 1;
  }
  listen(fd, 8);                             // EXPECT(raw-socket-access)
  int c = ::accept(fd, nullptr, nullptr);    // EXPECT(raw-socket-access)
  ::connect(c, &addr, sizeof(addr));         // EXPECT(raw-socket-access)
  return c;
}

void good_wrapper_use() {
  // Qualified names and member calls are someone else's API, not raw
  // syscalls: none of these lines is a finding.
  auto stream = fairsfe::net::tcp_connect("127.0.0.1", 9600);
  auto local = fairsfe::net::unix_connect("/tmp/x.sock");
  auto lis = fairsfe::net::TcpListener::bind("127.0.0.1", 0);
  auto peer = lis.accept();
  auto fn = std::bind(&bad_raw_calls);
  (void)stream; (void)local; (void)peer; (void)fn;
}
