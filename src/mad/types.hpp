// Core types of the Madeleine II interface: the pack/unpack semantic flags
// (paper Section 2.2) and the buffer descriptors exchanged between the
// Buffer Management Layer and the Transmission Modules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

namespace mad2::mad {

/// Emission flags (paper Section 2.2).
enum class SendMode : std::uint8_t {
  /// Pack so that later modification of the user memory cannot corrupt the
  /// message (data is consumed before pack returns).
  kSafer,
  /// Do not read the data until end_packing: modifications between pack
  /// and end_packing update the message contents.
  kLater,
  /// Default: the library handles the data as efficiently as possible; the
  /// user must leave it unchanged until the send completes.
  kCheaper,
};

/// Reception flags (paper Section 2.2).
enum class ReceiveMode : std::uint8_t {
  /// The data is guaranteed available immediately after the unpack call
  /// (mandatory when the value controls subsequent unpacks).
  kExpress,
  /// Extraction may be deferred until end_unpacking.
  kCheaper,
};

// Paper-style aliases, for code that wants to read like the original API.
inline constexpr SendMode send_SAFER = SendMode::kSafer;
inline constexpr SendMode send_LATER = SendMode::kLater;
inline constexpr SendMode send_CHEAPER = SendMode::kCheaper;
inline constexpr ReceiveMode receive_EXPRESS = ReceiveMode::kExpress;
inline constexpr ReceiveMode receive_CHEAPER = ReceiveMode::kCheaper;

/// A protocol-level buffer handed out by a Transmission Module
/// (obtain_static_buffer / receive_static_buffer in Table 2). The memory
/// belongs to the protocol (preallocated BIP short buffers, preregistered
/// VIA buffers); Buffer Management Modules copy user data in and out.
struct StaticBuffer {
  std::span<std::byte> memory;  // protocol-owned capacity
  std::size_t used = 0;         // valid bytes (fill level / received size)
  std::uint64_t handle = 0;     // TM-private bookkeeping
};

/// A zero-copy view into a received protocol buffer (paper Section 6.1:
/// the gateway "borrows" the driver's static buffer instead of staging the
/// payload through a copy). `data` stays valid while `hold` is alive; the
/// last hold released returns the buffer to the Transmission Module.
struct BorrowedBlock {
  std::span<const std::byte> data;
  std::shared_ptr<void> hold;
};

}  // namespace mad2::mad
