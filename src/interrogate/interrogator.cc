#include "interrogate/interrogator.h"

#include "cert/x509.h"
#include "core/fault.h"
#include "core/rng.h"
#include "core/strings.h"
#include "core/trace.h"
#include "interrogate/scanners.h"
#include "proto/tls.h"

namespace censys::interrogate {

void Interrogator::BindMetrics(metrics::Registry* registry) {
  attempts_metric_ = metrics::BindCounter(registry,
                                          "censys.interrogate.attempts");
  no_answer_metric_ = metrics::BindCounter(registry,
                                           "censys.interrogate.no_answer");
  handshakes_metric_ = metrics::BindCounter(registry,
                                            "censys.interrogate.handshakes");
  validated_metric_ = metrics::BindCounter(registry,
                                           "censys.interrogate.validated");
  unvalidated_metric_ = metrics::BindCounter(
      registry, "censys.interrogate.unvalidated");
  latency_metric_ = metrics::BindHistogram(registry,
                                           "censys.interrogate.latency_us");
}

std::optional<ServiceRecord> Interrogator::Interrogate(
    ServiceKey key, Timestamp t, int pop_id,
    std::optional<proto::Protocol> udp_hint, std::string_view sni_name) {
  InterrogationResult result =
      InterrogateDetached(key, t, pop_id, udp_hint, sni_name);
  CommitResult(result);
  return result.record;
}

InterrogationResult Interrogator::InterrogateDetached(
    ServiceKey key, Timestamp t, int pop_id,
    std::optional<proto::Protocol> udp_hint, std::string_view sni_name) const {
  metrics::ScopedTimer timer(latency_metric_);
  TRACE_SPAN("interrogate", "probe");
  attempts_metric_.Add();

  InterrogationResult result;
  result.key = key;
  result.at = t;
  result.pop_id = pop_id;

  // Injected probe loss ("interrogate.probe"): the target looks dead for
  // this attempt. Every fault mode reduces to a lost probe on this pure
  // path — there is nothing to tear or corrupt.
  if (fault::Hit("interrogate.probe").has_value()) {
    no_answer_metric_.Add();
    return result;
  }

  const simnet::ProbeContext ctx{&profile_, pop_id};
  const auto session = net_.PeekL7(ctx, key, t);
  if (!session.has_value()) {
    no_answer_metric_.Add();
    return result;
  }
  result.connected = true;
  result.honeypot = session->service.honeypot;
  result.record = BuildRecordDetached(*session, t, udp_hint, sni_name, result);
  return result;
}

void Interrogator::CommitResult(const InterrogationResult& result) {
  if (!result.connected) return;
  TRACE_SPAN("interrogate", "commit");
  ++handshakes_;
  handshakes_metric_.Add();
  if (result.record.has_value() && result.record->handshake_validated) {
    validated_metric_.Add();
  } else {
    unvalidated_metric_.Add();
  }
  if (result.honeypot) {
    const simnet::ProbeContext ctx{&profile_, result.pop_id};
    net_.NoteHoneypotContact(ctx, result.key, result.at);
  }
  if (cert_observer_) {
    for (const PresentedCertificate& presented : result.certs) {
      cert_observer_(presented, result.key, result.at);
    }
  }
}

ServiceRecord Interrogator::BuildRecord(const simnet::L7Session& session,
                                        Timestamp t,
                                        std::optional<proto::Protocol> udp_hint,
                                        std::string_view sni_name) {
  InterrogationResult result;
  result.key = session.service.key;
  result.at = t;
  result.connected = true;
  // Warm-start replays never contact honeypots (those are injected later),
  // and the serial Interrogate path reports contact via ConnectL7 parity:
  // the honeypot flag rides on the session either way.
  result.honeypot = session.service.honeypot;
  ServiceRecord record =
      BuildRecordDetached(session, t, udp_hint, sni_name, result);
  result.record = record;
  CommitResult(result);
  return record;
}

ServiceRecord Interrogator::BuildRecordDetached(
    const simnet::L7Session& session, Timestamp t,
    std::optional<proto::Protocol> udp_hint, std::string_view sni_name,
    InterrogationResult& out) const {
  const simnet::SimService& svc = session.service;
  ServiceRecord record;
  record.key = svc.key;
  record.observed_at = t;

  const DetectionOutcome outcome =
      DetectProtocol(session, config_, udp_hint);
  record.protocol = outcome.protocol;
  record.raw_response = outcome.raw_response;
  switch (outcome.step) {
    case DetectionOutcome::Step::kServerBanner:
      record.detection = DetectionMethod::kServerBanner;
      break;
    case DetectionOutcome::Step::kIanaHandshake:
      record.detection = DetectionMethod::kIanaHandshake;
      break;
    case DetectionOutcome::Step::kBatteryHandshake:
      record.detection = DetectionMethod::kBatteryHandshake;
      break;
    case DetectionOutcome::Step::kTlsWrapped:
      record.detection = DetectionMethod::kTlsWrapped;
      break;
    case DetectionOutcome::Step::kNone:
      record.detection = DetectionMethod::kNone;
      break;
  }
  record.handshake_validated =
      record.detection != DetectionMethod::kNone &&
      record.protocol != proto::Protocol::kUnknown;

  if (!record.handshake_validated) {
    // Raw capture only; no protocol-specific extraction possible.
    return record;
  }

  // --- protocol-specific data collection -------------------------------------
  record.banner = proto::GenerateBanner(record.protocol, svc.seed);
  record.software = proto::GenerateSoftware(record.protocol, svc.seed);
  record.device = proto::GenerateDevice(record.protocol, svc.seed);
  ExtractProtocolFields(svc, record);

  if (record.protocol == proto::Protocol::kHttp ||
      record.protocol == proto::Protocol::kHttps) {
    if (svc.requires_sni && sni_name.empty()) {
      // Nameless scan of a name-addressed property: the frontend serves a
      // generic page (§4.3) — the real content needs the right Host/SNI.
      record.html_title = "Default web page";
      record.page_keywords = "default frontend";
    } else if (svc.requires_sni && !EqualsIgnoreCase(sni_name, svc.sni_name)) {
      // Wrong name: same generic page.
      record.html_title = "Default web page";
      record.page_keywords = "default frontend";
    } else {
      record.html_title = proto::GenerateHtmlTitle(svc.seed);
      record.page_keywords = proto::GeneratePageKeywords(svc.seed);
      if (!sni_name.empty()) record.sni_name = std::string(sni_name);
    }
  }

  // --- follow-up handshakes: TLS parameters and certificate ------------------
  const auto tls = proto::DeriveTls(record.protocol, svc.seed);
  if (tls.has_value()) {
    record.tls = true;
    record.tls_version = std::string(proto::ToString(tls->version));
    record.jarm = tls->Jarm();
    record.ja4s = tls->Ja4s();
    const cert::Certificate presented = cert::SynthesizeCertificate(
        tls->cert_seed, svc.requires_sni ? svc.sni_name : std::string_view{},
        Timestamp{0});
    record.cert_sha256 = presented.Sha256Hex();
    out.certs.push_back(PresentedCertificate{presented, record.cert_sha256});
  }

  return record;
}

}  // namespace censys::interrogate
