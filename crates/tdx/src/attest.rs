//! Measurement registers, TDREPORT and quotes (§2.1 "remote attestation").
//!
//! The simulated hardware holds an Ed25519 provisioning key whose public
//! half plays the role of Intel's root of trust: clients are provisioned
//! with it out of band and verify quotes against it. `MRTD` measures the
//! boot-time images (firmware + monitor, §5.1 stage one); the four RTMRs
//! are runtime-extendable.

use erebor_crypto::hmac::hmac_sha256;
use erebor_crypto::sha256::Sha256;
use erebor_crypto::{SigningKey, VerifyingKey};
use erebor_wire::{Wire, WireError};

/// The TDREPORT structure: measurements plus caller-supplied report data,
/// integrity-bound with the module's HMAC key (the expensive part of
/// `tdcall.tdreport`, per the paper's Table 4 note).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TdReport {
    /// Boot measurement (firmware + monitor images).
    pub mrtd: [u8; 32],
    /// Runtime measurement registers.
    pub rtmr: [[u8; 32]; 4],
    /// 64 bytes of caller data (e.g. the key-exchange binding hash).
    pub report_data: [u8; 64],
    /// Module-keyed integrity MAC.
    pub mac: [u8; 32],
}

impl TdReport {
    fn body(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(32 * 5 + 64);
        b.extend_from_slice(&self.mrtd);
        for r in &self.rtmr {
            b.extend_from_slice(r);
        }
        b.extend_from_slice(&self.report_data);
        b
    }
}

/// A CPU-signed quote over a TDREPORT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// The embedded report.
    pub report: TdReport,
    /// Ed25519 signature by the hardware provisioning key.
    pub signature: [u8; 64],
}

/// RTMR index out of range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtmrIndexOutOfRange;

impl core::fmt::Display for RtmrIndexOutOfRange {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "RTMR index out of range (0..4)")
    }
}

impl std::error::Error for RtmrIndexOutOfRange {}

/// Quote verification failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuoteError {
    /// The signature does not verify under the expected root key.
    BadSignature,
    /// MRTD does not match the expected boot measurement.
    MeasurementMismatch,
}

impl core::fmt::Display for QuoteError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QuoteError::BadSignature => write!(f, "quote signature invalid"),
            QuoteError::MeasurementMismatch => write!(f, "quote MRTD mismatch"),
        }
    }
}

impl std::error::Error for QuoteError {}

/// Measurement and quoting state held by the TDX module.
pub struct Attestation {
    mrtd: [u8; 32],
    mrtd_sealed: bool,
    rtmr: [[u8; 32]; 4],
    root_key: SigningKey,
    mac_key: [u8; 32],
}

impl Attestation {
    /// Create with a deterministic per-machine root seed.
    #[must_use]
    pub fn new(root_seed: [u8; 32]) -> Attestation {
        Attestation {
            mrtd: [0; 32],
            mrtd_sealed: false,
            rtmr: [[0; 32]; 4],
            root_key: SigningKey::from_seed(root_seed),
            mac_key: erebor_crypto::sha256(&root_seed),
        }
    }

    /// The public root key clients are provisioned with.
    #[must_use]
    pub fn root_public(&self) -> VerifyingKey {
        self.root_key.verifying_key()
    }

    /// Extend MRTD with a boot-time image (stage-one measurement, §5.1).
    ///
    /// # Panics
    /// Panics if called after [`Attestation::seal_mrtd`] — boot measurement
    /// is immutable once the TD starts executing.
    pub fn extend_mrtd(&mut self, image_bytes: &[u8]) {
        assert!(!self.mrtd_sealed, "MRTD is sealed after boot");
        let mut h = Sha256::new();
        h.update(&self.mrtd);
        h.update(&erebor_crypto::sha256(image_bytes));
        self.mrtd = h.finalize();
    }

    /// Seal MRTD at first TD entry.
    pub fn seal_mrtd(&mut self) {
        self.mrtd_sealed = true;
    }

    /// Current MRTD value.
    #[must_use]
    pub fn mrtd(&self) -> [u8; 32] {
        self.mrtd
    }

    /// Extend an RTMR (runtime measurement).
    ///
    /// # Errors
    /// [`RtmrIndexOutOfRange`] for indices ≥ 4.
    pub fn extend_rtmr(&mut self, index: usize, data: &[u8]) -> Result<(), RtmrIndexOutOfRange> {
        let slot = self.rtmr.get_mut(index).ok_or(RtmrIndexOutOfRange)?;
        let mut h = Sha256::new();
        h.update(&*slot);
        h.update(&erebor_crypto::sha256(data));
        *slot = h.finalize();
        Ok(())
    }

    /// Generate a TDREPORT binding `report_data`.
    #[must_use]
    pub fn tdreport(&self, report_data: [u8; 64]) -> TdReport {
        let mut r = TdReport {
            mrtd: self.mrtd,
            rtmr: self.rtmr,
            report_data,
            mac: [0; 32],
        };
        r.mac = hmac_sha256(&self.mac_key, &r.body());
        r
    }

    /// Check a report's integrity MAC (module-local check).
    #[must_use]
    pub fn report_mac_valid(&self, report: &TdReport) -> bool {
        erebor_crypto::ct::eq(&hmac_sha256(&self.mac_key, &report.body()), &report.mac)
    }

    /// Serialise the measurement state for migration: MRTD, the sealed
    /// flag, and the four RTMRs. Key material is *not* exported — the
    /// destination reconstructs it from the hardware root seed, exactly
    /// as [`Attestation::new`] does.
    #[must_use]
    pub fn export_state(&self) -> Vec<u8> {
        (self.mrtd, self.mrtd_sealed, self.rtmr).to_wire()
    }

    /// Rebuild measurement state from [`Attestation::export_state`] bytes
    /// plus the destination's root seed.
    ///
    /// # Errors
    /// [`WireError`] on truncation or trailing bytes.
    pub fn import_state(root_seed: [u8; 32], bytes: &[u8]) -> Result<Attestation, WireError> {
        let (mrtd, mrtd_sealed, rtmr) = Wire::from_wire(bytes)?;
        Ok(Attestation {
            mrtd,
            mrtd_sealed,
            rtmr,
            ..Attestation::new(root_seed)
        })
    }

    /// Sign a report into a quote (the quoting path; in real TDX this
    /// involves the quoting enclave — collapsed here into the module).
    #[must_use]
    pub fn quote(&self, report: TdReport) -> Quote {
        let mut msg = b"TDX-QUOTE-v1".to_vec();
        msg.extend_from_slice(&report.body());
        let signature = self.root_key.sign(&msg);
        Quote { report, signature }
    }
}

impl core::fmt::Debug for Attestation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Attestation")
            .field("mrtd", &self.mrtd)
            .field("sealed", &self.mrtd_sealed)
            .finish_non_exhaustive()
    }
}

/// What a verifier expects the quote to attest.
///
/// In a plain TDX deployment the firmware+monitor measurement is in MRTD
/// (§5.1). In a paravisor-enhanced CVM (§10), MRTD reflects the
/// paravisor; Erebor's measurement moves to a runtime measurement
/// register, so verifiers check MRTD = paravisor *and* RTMR\[0\] = monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// Plain deployment: MRTD covers firmware + monitor.
    Mrtd([u8; 32]),
    /// Paravisor deployment: MRTD covers the paravisor, RTMR\[0\] covers
    /// firmware + monitor.
    ParavisorRtmr {
        /// Expected paravisor measurement (MRTD).
        mrtd: [u8; 32],
        /// Expected firmware+monitor measurement (RTMR\[0\]).
        rtmr0: [u8; 32],
    },
}

/// Client-side quote verification: signature under the provisioned root
/// key, then the expected boot measurement(s).
///
/// # Errors
/// [`QuoteError`] naming the failed check.
pub fn verify_quote_expected(
    root: &VerifyingKey,
    quote: &Quote,
    expected: &Expected,
) -> Result<(), QuoteError> {
    let mut msg = b"TDX-QUOTE-v1".to_vec();
    msg.extend_from_slice(&quote.report.body());
    root.verify(&msg, &quote.signature)
        .map_err(|_| QuoteError::BadSignature)?;
    let ok = match expected {
        Expected::Mrtd(m) => erebor_crypto::ct::eq(&quote.report.mrtd, m),
        Expected::ParavisorRtmr { mrtd, rtmr0 } => {
            erebor_crypto::ct::eq(&quote.report.mrtd, mrtd)
                && erebor_crypto::ct::eq(&quote.report.rtmr[0], rtmr0)
        }
    };
    if !ok {
        return Err(QuoteError::MeasurementMismatch);
    }
    Ok(())
}

/// Convenience for the plain deployment (MRTD check only).
///
/// # Errors
/// [`QuoteError`] naming the failed check.
pub fn verify_quote(
    root: &VerifyingKey,
    quote: &Quote,
    expected_mrtd: &[u8; 32],
) -> Result<(), QuoteError> {
    verify_quote_expected(root, quote, &Expected::Mrtd(*expected_mrtd))
}

/// Compute the MRTD a verifier *expects* for a given boot image sequence
/// (what the paper's client derives from the open-source firmware and
/// monitor, §5.1).
#[must_use]
pub fn expected_mrtd(images: &[&[u8]]) -> [u8; 32] {
    let mut mrtd = [0u8; 32];
    for img in images {
        let mut h = Sha256::new();
        h.update(&mrtd);
        h.update(&erebor_crypto::sha256(img));
        mrtd = h.finalize();
    }
    mrtd
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_roundtrip() {
        let mut att = Attestation::new([5u8; 32]);
        att.extend_mrtd(b"firmware image");
        att.extend_mrtd(b"monitor image");
        att.seal_mrtd();
        let mut rd = [0u8; 64];
        rd[..4].copy_from_slice(b"bind");
        let quote = att.quote(att.tdreport(rd));
        let expect = expected_mrtd(&[b"firmware image", b"monitor image"]);
        verify_quote(&att.root_public(), &quote, &expect).unwrap();
        assert_eq!(quote.report.report_data[..4], *b"bind");
    }

    #[test]
    fn wrong_measurement_rejected() {
        let mut att = Attestation::new([5u8; 32]);
        att.extend_mrtd(b"firmware image");
        att.extend_mrtd(b"EVIL monitor");
        att.seal_mrtd();
        let quote = att.quote(att.tdreport([0; 64]));
        let expect = expected_mrtd(&[b"firmware image", b"monitor image"]);
        assert_eq!(
            verify_quote(&att.root_public(), &quote, &expect),
            Err(QuoteError::MeasurementMismatch)
        );
    }

    #[test]
    fn forged_signature_rejected() {
        let mut att = Attestation::new([5u8; 32]);
        att.extend_mrtd(b"fw");
        att.seal_mrtd();
        let mut quote = att.quote(att.tdreport([0; 64]));
        quote.report.report_data[0] ^= 1; // tamper after signing
        assert_eq!(
            verify_quote(&att.root_public(), &quote, &expected_mrtd(&[b"fw"])),
            Err(QuoteError::BadSignature)
        );
    }

    #[test]
    fn impersonation_with_other_key_rejected() {
        let mut real = Attestation::new([5u8; 32]);
        real.extend_mrtd(b"fw");
        real.seal_mrtd();
        // Attacker with a different root key (e.g. a non-TDX machine).
        let mut fake = Attestation::new([6u8; 32]);
        fake.extend_mrtd(b"fw");
        fake.seal_mrtd();
        let quote = fake.quote(fake.tdreport([0; 64]));
        assert_eq!(
            verify_quote(&real.root_public(), &quote, &expected_mrtd(&[b"fw"])),
            Err(QuoteError::BadSignature)
        );
    }

    #[test]
    fn report_mac_detects_tamper() {
        let att = Attestation::new([7u8; 32]);
        let mut r = att.tdreport([1; 64]);
        assert!(att.report_mac_valid(&r));
        r.rtmr[0][0] ^= 1;
        assert!(!att.report_mac_valid(&r));
    }

    #[test]
    fn rtmr_extension_order_matters() {
        let mut a = Attestation::new([1u8; 32]);
        let mut b = Attestation::new([1u8; 32]);
        a.extend_rtmr(0, b"x").unwrap();
        a.extend_rtmr(0, b"y").unwrap();
        b.extend_rtmr(0, b"y").unwrap();
        b.extend_rtmr(0, b"x").unwrap();
        assert_ne!(a.tdreport([0; 64]).rtmr[0], b.tdreport([0; 64]).rtmr[0]);
        assert!(a.extend_rtmr(4, b"z").is_err());
    }

    #[test]
    #[should_panic(expected = "MRTD is sealed")]
    fn mrtd_immutable_after_seal() {
        let mut att = Attestation::new([1u8; 32]);
        att.seal_mrtd();
        att.extend_mrtd(b"late image");
    }
}
