//! Secure data communication (§6.3): attestation-rooted key exchange
//! between a remote client and the monitor, an untrusted proxy relay, and
//! the monitor-side data shepherding into/out of sandboxes.
//!
//! Wire flow:
//!
//! ```text
//! client ──ClientHello{C}──▶ proxy ──▶ monitor
//! client ◀─ServerHello{M, quote(report_data=H(C‖M))}── proxy ◀── monitor
//! client ──AEAD records──▶ proxy ──▶ monitor ──(stac copy)──▶ sandbox
//! client ◀─AEAD records (fixed-length padded)── monitor ◀── sandbox
//! ```
//!
//! The proxy (and thus the host and kernel) only ever see hello material
//! and ciphertext.

use crate::monitor::{privileged, Monitor};
use crate::sandbox::{SandboxId, SandboxState};
use erebor_crypto::kx::{self, Role, SecureChannel};
use erebor_crypto::x25519;
use erebor_crypto::VerifyingKey;
use erebor_hw::cpu::Machine;
use erebor_hw::regs::Msr;
use erebor_tdx::attest::{verify_quote_expected, Expected, Quote, QuoteError};
use erebor_tdx::tdcall::{tdcall, TdcallLeaf, TdcallResult};
use erebor_tdx::TdxModule;

/// First flight: the client's ephemeral public key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// X25519 ephemeral public key.
    pub client_pub: [u8; 32],
}

/// Second flight: the monitor's ephemeral key plus the binding quote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// X25519 ephemeral public key.
    pub monitor_pub: [u8; 32],
    /// CPU-signed quote binding both public keys.
    pub quote: Quote,
}

/// Client-side handshake/verification failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientError {
    /// The quote failed verification.
    Quote(QuoteError),
    /// The quote does not bind this handshake's keys.
    BindingMismatch,
    /// Record-layer failure.
    Channel,
    /// Handshake not completed yet.
    NotEstablished,
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Quote(q) => write!(f, "attestation failed: {q}"),
            ClientError::BindingMismatch => write!(f, "quote does not bind the key exchange"),
            ClientError::Channel => write!(f, "secure-channel record rejected"),
            ClientError::NotEstablished => write!(f, "channel not established"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A remote client: provisioned with the hardware root key and the
/// expected boot measurement (firmware + monitor are open source, §5.1).
pub struct Client {
    private: [u8; 32],
    /// Our ephemeral public key.
    pub public: [u8; 32],
    root: VerifyingKey,
    expected: Expected,
    channel: Option<SecureChannel>,
}

impl Client {
    /// Create a client and its first flight.
    #[must_use]
    pub fn new(
        key_seed: [u8; 32],
        root: VerifyingKey,
        expected_mrtd: [u8; 32],
    ) -> (Client, ClientHello) {
        Client::with_expected(key_seed, root, Expected::Mrtd(expected_mrtd))
    }

    /// Create a client with an explicit measurement policy (the paravisor
    /// deployments of §10 use [`Expected::ParavisorRtmr`]).
    #[must_use]
    pub fn with_expected(
        key_seed: [u8; 32],
        root: VerifyingKey,
        expected: Expected,
    ) -> (Client, ClientHello) {
        let private = x25519::clamp_scalar(key_seed);
        let public = x25519::public_key(&private);
        (
            Client {
                private,
                public,
                root,
                expected,
                channel: None,
            },
            ClientHello { client_pub: public },
        )
    }

    /// Verify the monitor's reply and derive the session keys.
    ///
    /// # Errors
    /// [`ClientError`] if the quote, measurement or binding fail.
    pub fn finish(&mut self, hello: &ServerHello) -> Result<(), ClientError> {
        verify_quote_expected(&self.root, &hello.quote, &self.expected)
            .map_err(ClientError::Quote)?;
        let binding = kx::binding_hash(&self.public, &hello.monitor_pub);
        if hello.quote.report.report_data[..32] != binding {
            return Err(ClientError::BindingMismatch);
        }
        let shared = x25519::shared_secret(&self.private, &hello.monitor_pub);
        let keys = kx::derive_session_keys(&shared, &self.public, &hello.monitor_pub);
        self.channel = Some(SecureChannel::new(keys, Role::Client));
        Ok(())
    }

    /// Seal client data for the monitor.
    ///
    /// # Errors
    /// [`ClientError::NotEstablished`] before [`Client::finish`].
    pub fn seal(&mut self, data: &[u8]) -> Result<Vec<u8>, ClientError> {
        self.channel
            .as_mut()
            .ok_or(ClientError::NotEstablished)?
            .send(data)
            .map_err(|_| ClientError::Channel)
    }

    /// Open a result record from the monitor, stripping the fixed-length
    /// padding frame.
    ///
    /// # Errors
    /// [`ClientError`] on record or framing failures.
    pub fn open_result(&mut self, record: &[u8]) -> Result<Vec<u8>, ClientError> {
        let padded = self
            .channel
            .as_mut()
            .ok_or(ClientError::NotEstablished)?
            .recv(record)
            .map_err(|_| ClientError::Channel)?;
        if padded.len() < 4 {
            return Err(ClientError::Channel);
        }
        let len = u32::from_le_bytes([padded[0], padded[1], padded[2], padded[3]]) as usize;
        if 4 + len > padded.len() {
            return Err(ClientError::Channel);
        }
        Ok(padded[4..4 + len].to_vec())
    }
}

impl core::fmt::Debug for Client {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Client")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

/// The untrusted in-CVM proxy: relays opaque bytes between the network and
/// the monitor, and — being attacker-controlled — records everything it
/// sees into the host's observation log.
#[derive(Debug, Default)]
pub struct Proxy;

impl Proxy {
    /// Relay a flight, recording it for the attacker.
    #[must_use]
    pub fn relay(tdx: &mut TdxModule, bytes: &[u8]) -> Vec<u8> {
        tdx.host.record_vmcall(bytes);
        bytes.to_vec()
    }
}

impl Monitor {
    /// Accept a client handshake for `sandbox`: generate an ephemeral key,
    /// obtain a binding quote via `tdcall` (the monitor is the only code
    /// able to, C5), and derive the session.
    ///
    /// # Errors
    /// Static string on sandbox-state or tdcall failures.
    pub fn channel_accept(
        &mut self,
        machine: &mut Machine,
        tdx: &mut TdxModule,
        cpu: usize,
        sandbox: SandboxId,
        hello: &ClientHello,
    ) -> Result<ServerHello, &'static str> {
        match self.sandboxes.get(&sandbox.0) {
            None => return Err("no such sandbox"),
            Some(s) if s.state == SandboxState::Dead => return Err("sandbox is dead"),
            Some(_) => {}
        }
        let private = x25519::clamp_scalar(self.rng.next_32());
        let monitor_pub = x25519::public_key(&private);
        let binding = kx::binding_hash(&hello.client_pub, &monitor_pub);
        let mut report_data = [0u8; 64];
        report_data[..32].copy_from_slice(&binding);

        // Attestation runs in monitor context (the monitor's own code is
        // executing here, in ring 0 — only it can reach tdcall, C5).
        let quote = privileged(machine, cpu, |machine| {
            let report_data = Box::new(report_data);
            let report = match tdcall(tdx, machine, cpu, TdcallLeaf::TdReport { report_data }) {
                Ok(TdcallResult::Report(r)) => r,
                _ => return Err("tdreport failed"),
            };
            match tdcall(tdx, machine, cpu, TdcallLeaf::GetQuote(report)) {
                Ok(TdcallResult::Quote(q)) => Ok(*q),
                _ => Err("quote failed"),
            }
        })
        .map_err(|_| "privilege raise failed")??;
        self.stats.ghci_ops = self.stats.ghci_ops.saturating_add(2);

        let shared = x25519::shared_secret(&private, &hello.client_pub);
        let keys = kx::derive_session_keys(&shared, &hello.client_pub, &monitor_pub);
        let s = self
            .sandboxes
            .get_mut(&sandbox.0)
            .ok_or("no such sandbox")?;
        s.session = Some(SecureChannel::new(keys, Role::Monitor));
        Ok(ServerHello { monitor_pub, quote })
    }

    /// Receive a sealed client-data record: decrypt inside the monitor,
    /// stage the plaintext for the sandbox's INPUT ioctl, and — on the
    /// first record — transition the sandbox to
    /// [`SandboxState::DataLoaded`]: seal every attached common region
    /// read-only and disable user-mode interrupts (§6.1, §6.2 ④).
    ///
    /// # Errors
    /// Static string naming the failed step.
    pub fn install_client_data(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        sandbox: SandboxId,
        record: &[u8],
    ) -> Result<(), &'static str> {
        let (plain, first, commons) = {
            let s = self
                .sandboxes
                .get_mut(&sandbox.0)
                .ok_or("no such sandbox")?;
            if s.state == SandboxState::Dead {
                return Err("sandbox is dead");
            }
            let session = s.session.as_mut().ok_or("no client session")?;
            let plain = session.recv(record).map_err(|_| "record rejected")?;
            let first = s.state == SandboxState::Setup;
            let commons: Vec<u32> = s.attached_common.iter().map(|(r, _)| *r).collect();
            s.pending_input.push_back(plain.clone());
            (plain, first, commons)
        };
        let _ = plain;
        if first {
            for region in commons {
                self.seal_common(machine, cpu, region)
                    .map_err(|_| "seal failed")?;
            }
            // Disable user-mode interrupt sending before entering the
            // sandbox (clear IA32_UINTR_TT.valid).
            privileged(machine, cpu, |machine| machine.wrmsr(cpu, Msr::UintrTt, 0))
                .map_err(|_| "privilege raise failed")?
                .map_err(|_| "uintr disable failed")?;
            let s = self
                .sandboxes
                .get_mut(&sandbox.0)
                .ok_or("no such sandbox")?;
            s.state = SandboxState::DataLoaded;
        }
        Ok(())
    }

    /// Graceful session termination (§6.3): after all results are returned
    /// the monitor zeroes the sandbox's memory — confined pages (including
    /// the LibOS's in-memory filesystem and thread contexts living there) —
    /// releases the frames, and retires the container.
    pub fn end_session(&mut self, machine: &mut Machine, sandbox: SandboxId) {
        if let Some(s) = self.sandboxes.get_mut(&sandbox.0) {
            s.outbox.clear();
            s.saved_ctx = None;
        }
        // The teardown path (unmap → scrub → release) is shared with the
        // kill path; a graceful end is not counted as a kill, and a
        // sandbox that already died keeps the reason it died for.
        self.retire(machine, sandbox, "session ended");
    }

    /// Proxy pickup of the next sealed output record. With quantized
    /// output intervals configured (§11), the record is released only at
    /// the next interval boundary, so completion *time* carries no
    /// information either.
    pub fn fetch_output(&mut self, sandbox: SandboxId) -> Option<Vec<u8>> {
        self.sandboxes.get_mut(&sandbox.0)?.outbox.pop_front()
    }

    /// Like [`Monitor::fetch_output`] but applying the configured output
    /// interval quantization to the release time.
    pub fn fetch_output_quantized(
        &mut self,
        machine: &mut Machine,
        sandbox: SandboxId,
    ) -> Option<Vec<u8>> {
        let record = self.fetch_output(sandbox)?;
        if let Some(q) = self.cfg.output_interval_cycles {
            let now = machine.cycles.total();
            let wait = now.next_multiple_of(q.max(1)) - now;
            machine.cycles.charge(wait);
        }
        Some(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_hello_is_public_key() {
        let root = erebor_crypto::SigningKey::from_seed([1; 32]).verifying_key();
        let (client, hello) = Client::new([9; 32], root, [0; 32]);
        assert_eq!(hello.client_pub, client.public);
    }

    #[test]
    fn seal_before_finish_fails() {
        let root = erebor_crypto::SigningKey::from_seed([1; 32]).verifying_key();
        let (mut client, _) = Client::new([9; 32], root, [0; 32]);
        assert_eq!(client.seal(b"x"), Err(ClientError::NotEstablished));
    }
}
