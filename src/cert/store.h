// The certificate processor (§4.4, Figure 1 "Cert Processor" /
// "Cert Refresh Process").
//
// Certificates arrive from two directions — presented during TLS scans and
// observed in CT logs. Upon observing a new certificate, Censys parses it,
// validates it against browser root stores, checks CRL revocation, and
// lints it; validation and revocation are recomputed daily, because both
// change while the certificate itself does not. Certificates are entities
// keyed by SHA-256 fingerprint, cross-referenced to the hosts that
// presented them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "cert/ct.h"
#include "cert/x509.h"
#include "core/types.h"

namespace censys::cert {

struct CertificateRecord {
  Certificate certificate;
  ValidationStatus status = ValidationStatus::kUntrustedIssuer;
  LintResult lints;
  Timestamp first_seen;
  Timestamp last_validated;
  bool seen_in_ct = false;
  bool seen_in_scan = false;
  // Endpoints observed presenting this certificate (packed ServiceKeys) —
  // the "what IPs has certificate X been seen on?" index of §5.3.
  std::set<std::uint64_t> presented_by;
};

class CertificateStore {
 public:
  CertificateStore(const RootStore& roots, const CrlStore& crls)
      : roots_(roots), crls_(crls) {}

  // Ingests a certificate observed in a CT log.
  void ObserveFromCt(const CtEntry& entry, Timestamp now);
  // Ingests a certificate presented during a TLS handshake; `sha256_hex` is
  // its fingerprint, certificate.Sha256Hex(), which the interrogating
  // thread already computed.
  void ObserveFromScan(const Certificate& certificate,
                       std::string_view sha256_hex, ServiceKey presented_by,
                       Timestamp now);

  // Re-validates every certificate (status + revocation) — run daily
  // ("Censys recomputes certificate validation and revocation status
  // daily", §4.6). Returns how many records changed status.
  std::size_t RevalidateAll(Timestamp now);

  const CertificateRecord* Get(std::string_view sha256_hex) const;
  std::size_t size() const { return records_.size(); }

  // Lookup API pivot: endpoints that presented the certificate.
  std::vector<ServiceKey> PresentedBy(std::string_view sha256_hex) const;

  void ForEach(
      const std::function<void(std::string_view, const CertificateRecord&)>&
          fn) const;

  // Aggregate statistics for dashboards and benches.
  struct Stats {
    std::map<ValidationStatus, std::uint64_t> by_status;
    std::uint64_t with_lint_errors = 0;
    std::uint64_t ct_only = 0;    // in CT, never seen on a live endpoint
    std::uint64_t scan_only = 0;  // presented by hosts but absent from CT
  };
  Stats ComputeStats() const;

 private:
  CertificateRecord& Upsert(const Certificate& certificate,
                            std::string_view sha256_hex, Timestamp now);

  const RootStore& roots_;
  const CrlStore& crls_;
  std::map<std::string, CertificateRecord, std::less<>> records_;
};

}  // namespace censys::cert
