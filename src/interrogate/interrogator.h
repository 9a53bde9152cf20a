// Phase-2 Service Interrogation (§4.2).
//
// Fetches candidates found during Phase-1 discovery, detects the L7
// protocol, completes the protocol handshake, performs follow-up handshakes
// (TLS parameters, JARM/JA4S, certificate collection), and emits a
// structured ServiceRecord for the processing pipeline.
//
// The staged tick pipeline splits interrogation in two: InterrogateDetached
// is const and side-effect-free (safe to fan out across executor threads),
// returning the record plus every deferred side effect; CommitResult applies
// those effects — handshake accounting, certificate observation, honeypot
// contact logging — and runs serially in candidate-sequence order so
// parallel and single-threaded runs produce identical journals.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cert/x509.h"
#include "core/metrics.h"
#include "interrogate/detection.h"
#include "interrogate/record.h"
#include "simnet/internet.h"

namespace censys::interrogate {

// A certificate presented during a TLS follow-up handshake, with its
// SHA-256 fingerprint, computed where the handshake ran.
struct PresentedCertificate {
  cert::Certificate certificate;
  std::string sha256_hex;
};

// Everything one detached interrogation produced: the record (nullopt when
// nothing answered) and the side effects to apply at commit time.
struct InterrogationResult {
  ServiceKey key;
  Timestamp at;
  int pop_id = 0;
  // An L7 session was established (counts as a completed handshake even
  // when protocol detection subsequently fails).
  bool connected = false;
  bool honeypot = false;
  std::optional<ServiceRecord> record;
  // Certificates presented during TLS follow-up handshakes.
  std::vector<PresentedCertificate> certs;
};

class Interrogator {
 public:
  Interrogator(simnet::Internet& net, const simnet::ScannerProfile& profile,
               DetectorConfig config = DetectorConfig::CensysDefault())
      : net_(net), profile_(profile), config_(std::move(config)) {}

  // Interrogates one target. Returns nullopt when nothing answered (the
  // target is gone or invisible) — which the pipeline records as a failed
  // refresh. `sni_name` addresses a web property by name; `udp_hint` is the
  // UDP probe protocol from discovery. Serial convenience wrapper:
  // InterrogateDetached + CommitResult.
  std::optional<ServiceRecord> Interrogate(
      ServiceKey key, Timestamp t, int pop_id,
      std::optional<proto::Protocol> udp_hint = std::nullopt,
      std::string_view sni_name = {});

  // Pure interrogation: no mutation of the interrogator, the network, or
  // any observer. Thread-safe; this is what the engine fans out.
  InterrogationResult InterrogateDetached(
      ServiceKey key, Timestamp t, int pop_id,
      std::optional<proto::Protocol> udp_hint = std::nullopt,
      std::string_view sni_name = {}) const;

  // Applies a detached result's side effects. Must be called serially, in
  // candidate-sequence order.
  void CommitResult(const InterrogationResult& result);

  // Builds a record from an already-established session. Used by
  // Interrogate() and by the engine's equilibrium warm start, which
  // replays accumulated past observations without a live probe. Commits
  // side effects inline (serial callers only).
  ServiceRecord BuildRecord(const simnet::L7Session& session, Timestamp t,
                            std::optional<proto::Protocol> udp_hint,
                            std::string_view sni_name);

  std::uint64_t handshakes_completed() const { return handshakes_; }

  // Invoked with every certificate collected during a TLS follow-up
  // handshake, and its fingerprint; the engine feeds these to its
  // certificate store (§4.4).
  using CertObserver = std::function<void(const PresentedCertificate&,
                                          ServiceKey, Timestamp)>;
  void SetCertificateObserver(CertObserver observer) {
    cert_observer_ = std::move(observer);
  }

  // Registers censys.interrogate.* instruments. The latency histogram is
  // recorded from InterrogateDetached, so it must tolerate concurrent
  // observation (it does: atomics only).
  void BindMetrics(metrics::Registry* registry);

  const DetectorConfig& config() const { return config_; }

 private:
  // Record construction without side effects; fills `out.certs`.
  ServiceRecord BuildRecordDetached(const simnet::L7Session& session,
                                    Timestamp t,
                                    std::optional<proto::Protocol> udp_hint,
                                    std::string_view sni_name,
                                    InterrogationResult& out) const;

  simnet::Internet& net_;
  const simnet::ScannerProfile& profile_;
  DetectorConfig config_;
  CertObserver cert_observer_;
  std::uint64_t handshakes_ = 0;

  metrics::CounterHandle attempts_metric_;
  metrics::CounterHandle no_answer_metric_;
  metrics::CounterHandle handshakes_metric_;
  metrics::CounterHandle validated_metric_;
  metrics::CounterHandle unvalidated_metric_;
  metrics::HistogramHandle latency_metric_;
};

}  // namespace censys::interrogate
