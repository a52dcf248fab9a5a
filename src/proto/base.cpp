#include "proto/base.hpp"

#include <string>

namespace lrc::proto {

ProtocolBase::ProtocolBase(core::Machine& m)
    : m_(m), sync_done_(m.nprocs(), 0) {}

void ProtocolBase::handler_error(const mesh::Message& msg, const char* what) {
  throw ProtocolError("node " + std::to_string(msg.dst) + ": " +
                      std::string(mesh::to_string(msg.kind)) + " from node " +
                      std::to_string(msg.src) + " for line " +
                      std::to_string(msg.line) + ": " + what);
}

}  // namespace lrc::proto
