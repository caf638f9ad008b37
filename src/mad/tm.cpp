#include "mad/tm.hpp"

namespace mad2::mad {

void Tm::send_buffer_group(
    Connection& connection,
    const std::vector<std::span<const std::byte>>& group) {
  for (const auto& buffer : group) send_buffer(connection, buffer);
}

void Tm::receive_sub_buffer_group(
    Connection& connection, const std::vector<std::span<std::byte>>& group) {
  for (const auto& buffer : group) receive_buffer(connection, buffer);
}

}  // namespace mad2::mad
