// Error hierarchy shared by every hpm module.
//
// All recoverable failures surface as exceptions derived from hpm::Error so
// callers can catch one base type at a subsystem boundary while tests can
// assert on the precise category.
#pragma once

#include <stdexcept>
#include <string>

namespace hpm {

/// Base class of every error thrown by the hpm library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed, truncated, or version-incompatible migration stream.
class WireError : public Error {
 public:
  using Error::Error;
};

/// Type-table inconsistency: unknown type id, signature mismatch,
/// illegal type construction.
class TypeError : public Error {
 public:
  using Error::Error;
};

/// MSR / MSRLT failure: unregistered address, duplicate block, pointer
/// into untracked memory.
class MsrError : public Error {
 public:
  using Error::Error;
};

/// A primitive value cannot be represented on the destination
/// architecture (e.g. a 64-bit long that overflows a 32-bit long).
class ConversionError : public Error {
 public:
  using Error::Error;
};

/// Transport-layer failure (socket, file channel, framing).
class NetError : public Error {
 public:
  using Error::Error;
};

/// A channel operation exceeded its configured deadline. Derives from
/// NetError so transport-boundary handlers treat it as one more
/// (retryable) transport failure, while tests can assert on the precise
/// category.
class TimeoutError : public NetError {
 public:
  using NetError::NetError;
};

/// The peer violated the migration protocol: duplicate or out-of-order
/// chunk sequence numbers, totals that disagree with what arrived,
/// messages outside the expected exchange. Derives from NetError so the
/// coordinator treats it as one more retryable transfer failure.
class ProtocolError : public NetError {
 public:
  using NetError::NetError;
};

/// Injected process death (FaultKind::Kill or KillOnRecv): the endpoint
/// "crashed" and can run no recovery code of its own. Deliberately NOT a
/// NetError — the retry machinery must not absorb a crash as a transport
/// fault; the journal-recovery path owns it.
class KilledError : public Error {
 public:
  using Error::Error;
};

/// Migration-runtime misuse or failed migration protocol step.
class MigrationError : public Error {
 public:
  using Error::Error;
};

/// precc front-end: lexical or syntactic error in a declaration file.
class ParseError : public Error {
 public:
  using Error::Error;
};

/// precc semantic check: the declaration uses a migration-unsafe feature.
class UnsafeFeatureError : public Error {
 public:
  using Error::Error;
};

}  // namespace hpm
