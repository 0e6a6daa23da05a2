#include "server/client.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace rppm {
namespace server {

namespace {

void
sysFail(const std::string &what)
{
    throw std::runtime_error("rppm client: " + what + ": " +
                             std::strerror(errno));
}

} // namespace

RppmClient::~RppmClient()
{
    close();
}

void
RppmClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    serverName_.clear();
}

void
RppmClient::connect(const std::string &socketPath,
                    const std::string &clientName)
{
    close();

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("rppm client: socket path too long: " +
                                 socketPath);
    std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);

    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        sysFail("socket");
    if (::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        const int err = errno;
        ::close(fd_);
        fd_ = -1;
        errno = err;
        sysFail("connect " + socketPath);
    }

    try {
        writeFrame(fd_, MsgType::Hello, encodeHello({clientName}));
        Frame frame;
        if (!readFrame(fd_, frame))
            throw ProtocolError("server closed during negotiation");
        if (frame.type == MsgType::Error)
            throw std::runtime_error("rppm client: server rejected us: " +
                                     decodeError(frame.payload).message);
        if (frame.type != MsgType::HelloOk)
            throw ProtocolError("expected HelloOk");
        serverName_ = decodeHelloOk(frame.payload).serverName;
    } catch (...) {
        close();
        throw;
    }
}

std::vector<CellResult>
RppmClient::evaluate(const Query &query,
                     const std::function<void(const CellResult &)> &onResult)
{
    if (fd_ < 0)
        throw std::logic_error("rppm client: not connected");

    const unsigned maxAttempts =
        backoff_.maxAttempts == 0 ? 1 : backoff_.maxAttempts;
    for (unsigned attempt = 0;; ++attempt) {
        RequestMsg req;
        req.id = nextId_++;
        if (nextId_ == 0) // id 0 is reserved for connection-level errors
            nextId_ = 1;
        req.kind = query.kind;
        req.workload = query.workload;
        req.profiler = query.profiler;
        req.rppm = query.rppm;
        req.deadlineMs = query.deadlineMs;
        req.configs = query.configs;
        writeFrame(fd_, MsgType::Request, encodeRequest(req));

        std::vector<CellResult> results;
        results.reserve(query.configs.size());
        uint32_t retryAfterMs = 0;
        bool busy = false;
        Frame frame;
        while (!busy) {
            if (!readFrame(fd_, frame))
                throw ProtocolError("server closed mid-request");
            // Frames for other ids are leftovers of an earlier aborted
            // request on this connection (the server may still have had
            // cells in flight when we gave up on it). Discard them —
            // they must not poison this request.
            switch (frame.type) {
            case MsgType::Result: {
                const ResultMsg res = decodeResult(frame.payload);
                if (res.id != req.id)
                    break; // stale
                if (res.cell >= query.configs.size())
                    throw ProtocolError("Result cell out of range");
                CellResult cell;
                cell.cell = res.cell;
                cell.config = res.config;
                cell.cycles = res.cycles;
                cell.seconds = res.seconds;
                cell.threadSeconds = res.threadSeconds;
                if (onResult)
                    onResult(cell);
                results.push_back(std::move(cell));
                break;
            }
            case MsgType::Done: {
                const DoneMsg done = decodeDone(frame.payload);
                if (done.id != req.id)
                    break; // stale
                if (done.cells != results.size() ||
                    results.size() != query.configs.size())
                    throw ProtocolError(
                        "request completed with missing cells");
                std::sort(results.begin(), results.end(),
                          [](const CellResult &a, const CellResult &b) {
                              return a.cell < b.cell;
                          });
                for (size_t i = 0; i < results.size(); ++i)
                    if (results[i].cell != i)
                        throw ProtocolError(
                            "duplicate or missing result cell");
                return results;
            }
            case MsgType::Busy: {
                const BusyMsg b = decodeBusy(frame.payload);
                if (b.id != req.id)
                    break; // stale
                retryAfterMs = b.retryAfterMs;
                busy = true;
                break;
            }
            case MsgType::Error: {
                const ErrorMsg err = decodeError(frame.payload);
                if (err.id != 0 && err.id != req.id)
                    break; // stale abort of an earlier request
                throw std::runtime_error("rppm server error: " +
                                         err.message);
            }
            default:
                throw ProtocolError("unexpected message type from server");
            }
        }

        // Shed by the server: back off and retry. Capped exponential
        // schedule on the server's hint, with deterministic seeded
        // jitter (half the delay) so a herd of shed clients spreads out
        // instead of re-stampeding in lockstep.
        if (attempt + 1 >= maxAttempts)
            throw std::runtime_error(
                "rppm server busy: gave up after " +
                std::to_string(maxAttempts) + " attempts");
        // delayMs << attempt, saturated at the cap: the shift is
        // undefined from 64 on and wraps below the cap for large hints.
        uint64_t delayMs = retryAfterMs == 0 ? 1 : retryAfterMs;
        const uint64_t capMs = backoff_.capMs;
        if (attempt >= 64 || delayMs > (capMs >> attempt))
            delayMs = capMs;
        else
            delayMs <<= attempt;
        if (delayMs == 0)
            delayMs = 1;
        const uint64_t half = delayMs / 2;
        delayMs = delayMs - half + jitter_.nextBounded(half + 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(delayMs));
    }
}

void
RppmClient::shutdownServer()
{
    if (fd_ < 0)
        throw std::logic_error("rppm client: not connected");
    writeFrame(fd_, MsgType::Shutdown, encodeShutdown());
}

} // namespace server
} // namespace rppm
