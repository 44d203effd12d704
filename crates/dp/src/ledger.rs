//! Append-only privacy-budget ledger.
//!
//! Every mechanism invocation in a private training run appends one
//! [`LedgerEntry`] recording the noise multiplier σ, sensitivity Δ_g,
//! subsampling structure, and the accountant's cumulative `(ε, α)` after
//! the step. The ledger composes each step through its own
//! [`RdpAccountant`], so its running ε *is* the accountant's — and
//! because each entry carries the full mechanism parameters, the whole
//! accounting can be replayed offline from the entries alone
//! ([`replay_records`]) or checked in-process
//! ([`PrivacyLedger::verify_replay`]): the reconstructed cumulative ε
//! must match the recorded one to within 1e-9.
//!
//! With an event sink listening at `Debug`, every recorded step also
//! emits a `dp`/`mechanism` event, which
//! [`privim_obs::RunTelemetry::from_jsonl`] aggregates back into
//! [`privim_obs::LedgerRecord`]s.

use privim_obs::LedgerRecord;

use crate::rdp::{subsampled_gaussian_rdp, RdpAccountant, SubsampledConfig};

/// Magic + version prefix of the binary ledger format.
const LEDGER_MAGIC: &[u8; 4] = b"PVLG";
const LEDGER_VERSION: u32 = 1;

/// The one mechanism every entry accounts for: per-coordinate Gaussian
/// noise on the clipped gradient sum (Theorem 3). Its name in events and
/// telemetry, and its wire code in the binary format.
const MECHANISM: &str = "subsampled_gaussian";
const MECHANISM_CODE: u8 = 0;

/// One recorded mechanism invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Accounted step index (1-based).
    pub step: u64,
    /// Noise multiplier σ.
    pub sigma: f64,
    /// Group sensitivity Δ_g = C · N_g (the noise std is σ · Δ_g).
    pub sensitivity: f64,
    /// Subsampling rate q = N_g / m.
    pub sampling_rate: f64,
    /// Subsampling structure (N_g, B, m) the RDP bound was evaluated at.
    pub config: SubsampledConfig,
    /// Target δ of the RDP→(ε, δ) conversion.
    pub delta: f64,
    /// This step's RDP increment γ(α) at the realized best order α.
    pub gamma_step: f64,
    /// Cumulative ε after this step.
    pub epsilon_after: f64,
    /// The order α that realized the ε minimum.
    pub alpha: f64,
}

impl LedgerEntry {
    /// Converts to the telemetry-layer record (the same shape
    /// `dp`/`mechanism` events parse back into).
    pub fn to_record(&self) -> LedgerRecord {
        LedgerRecord {
            step: self.step,
            mechanism: MECHANISM.to_string(),
            sigma: self.sigma,
            sensitivity: self.sensitivity,
            sampling_rate: self.sampling_rate,
            max_occurrences: self.config.max_occurrences as u64,
            batch_size: self.config.batch_size as u64,
            container_size: self.config.container_size as u64,
            delta: self.delta,
            epsilon_after: self.epsilon_after,
            alpha: self.alpha,
        }
    }
}

/// The append-only ledger plus the accountant it composes through.
#[derive(Debug, Clone)]
pub struct PrivacyLedger {
    accountant: RdpAccountant,
    delta: f64,
    entries: Vec<LedgerEntry>,
}

impl PrivacyLedger {
    /// A fresh ledger over the default α grid, converting at `delta`.
    pub fn new(delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        PrivacyLedger {
            accountant: RdpAccountant::default(),
            delta,
            entries: Vec::new(),
        }
    }

    /// Records one subsampled-Gaussian step: composes it on the
    /// accountant, converts to the running `(ε, α)`, appends the entry,
    /// and (with a `Debug` sink listening) emits a `dp`/`mechanism`
    /// event. Returns the cumulative `(ε, α)` after the step.
    pub fn record_step(
        &mut self,
        sigma: f64,
        sensitivity: f64,
        config: &SubsampledConfig,
    ) -> (f64, f64) {
        self.accountant
            .compose_subsampled_gaussian(sigma, config, 1);
        let (epsilon_after, alpha) = self.accountant.epsilon(self.delta);
        let entry = LedgerEntry {
            step: self.entries.len() as u64 + 1,
            sigma,
            sensitivity,
            sampling_rate: config.affected_fraction(),
            config: *config,
            delta: self.delta,
            gamma_step: subsampled_gaussian_rdp(alpha, sigma, config),
            epsilon_after,
            alpha,
        };
        privim_obs::debug!(
            "dp",
            "mechanism",
            step = entry.step,
            mechanism = MECHANISM,
            sigma = entry.sigma,
            sensitivity = entry.sensitivity,
            sampling_rate = entry.sampling_rate,
            max_occurrences = entry.config.max_occurrences,
            batch_size = entry.config.batch_size,
            container_size = entry.config.container_size,
            delta = entry.delta,
            gamma_step = entry.gamma_step,
            epsilon_after = entry.epsilon_after,
            alpha = entry.alpha,
        );
        self.entries.push(entry);
        (epsilon_after, alpha)
    }

    /// The recorded entries, in order.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// The δ this ledger converts at.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The accountant holding this ledger's exact RDP state: a clone
    /// that composes further steps continues the run's accounting
    /// bit-for-bit.
    pub fn accountant(&self) -> &RdpAccountant {
        &self.accountant
    }

    /// Cumulative ε after the last recorded step, if any.
    pub fn cumulative_epsilon(&self) -> Option<f64> {
        self.entries.last().map(|e| e.epsilon_after)
    }

    /// The entries as telemetry-layer records.
    pub fn to_records(&self) -> Vec<LedgerRecord> {
        self.entries.iter().map(LedgerEntry::to_record).collect()
    }

    /// Invariant check: replays the ledger from its entries alone and
    /// verifies the reconstructed cumulative ε matches every recorded
    /// `epsilon_after` to within `tolerance` (use 1e-9). Returns the
    /// first violation as an error.
    pub fn verify_replay(&self, tolerance: f64) -> Result<(), String> {
        let records = self.to_records();
        let replayed = replay_records(&records, self.accountant.orders());
        for (entry, &(eps, _alpha)) in self.entries.iter().zip(&replayed) {
            let diff = (entry.epsilon_after - eps).abs();
            if diff.is_nan() || diff > tolerance {
                return Err(format!(
                    "ledger replay diverged at step {}: recorded ε = {}, replayed ε = {} \
                     (|Δ| = {diff:e} > {tolerance:e})",
                    entry.step, entry.epsilon_after, eps,
                ));
            }
        }
        Ok(())
    }

    /// Encodes the full ledger — α grid, accumulated γ state, δ, and
    /// every entry — in a versioned little-endian binary format. The
    /// encoding is lossless (`f64::to_bits`), so a decoded ledger
    /// continues accounting bit-for-bit and [`PrivacyLedger::verify_replay`]
    /// holds on it exactly as on the original. The format is consumed
    /// by the crash-safe checkpoint store, which checksums it as part of
    /// the checkpoint payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let orders = self.accountant.orders();
        let mut out = Vec::with_capacity(64 + orders.len() * 16 + self.entries.len() * 96);
        out.extend_from_slice(LEDGER_MAGIC);
        out.extend_from_slice(&LEDGER_VERSION.to_le_bytes());
        out.extend_from_slice(&(orders.len() as u64).to_le_bytes());
        for &alpha in orders {
            out.extend_from_slice(&alpha.to_bits().to_le_bytes());
        }
        for &gamma in self.accountant.gammas() {
            out.extend_from_slice(&gamma.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&self.delta.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.step.to_le_bytes());
            out.push(MECHANISM_CODE);
            for v in [
                e.sigma,
                e.sensitivity,
                e.sampling_rate,
                e.delta,
                e.gamma_step,
                e.epsilon_after,
                e.alpha,
            ] {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            for v in [
                e.config.max_occurrences as u64,
                e.config.batch_size as u64,
                e.config.container_size as u64,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a ledger encoded by [`PrivacyLedger::to_bytes`],
    /// validating structure (magic, version, lengths, mechanism codes)
    /// and invariants (α > 1, finite non-negative γ, δ ∈ (0, 1)). This
    /// checks *shape*; budget exactness is the caller's job via
    /// [`PrivacyLedger::verify_replay`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != LEDGER_MAGIC {
            return Err("bad ledger magic".into());
        }
        let version = u32::from_le_bytes(r.take(4)?.try_into().unwrap());
        if version != LEDGER_VERSION {
            return Err(format!(
                "unsupported ledger version {version} (expected {LEDGER_VERSION})"
            ));
        }
        let n_orders = r.u64()? as usize;
        if n_orders == 0 || n_orders > 1 << 16 {
            return Err(format!("implausible order count {n_orders}"));
        }
        let orders: Vec<f64> = (0..n_orders).map(|_| r.f64()).collect::<Result<_, _>>()?;
        let gammas: Vec<f64> = (0..n_orders).map(|_| r.f64()).collect::<Result<_, _>>()?;
        if orders.iter().any(|&a| a.is_nan() || a <= 1.0) {
            return Err("ledger orders must be > 1".into());
        }
        if gammas.iter().any(|&g| !(g.is_finite() && g >= 0.0)) {
            return Err("ledger gammas must be finite and non-negative".into());
        }
        let delta = r.f64()?;
        if !(delta > 0.0 && delta < 1.0) {
            return Err(format!("ledger delta {delta} outside (0, 1)"));
        }
        let n_entries = r.u64()? as usize;
        if n_entries > 1 << 32 {
            return Err(format!("implausible entry count {n_entries}"));
        }
        let mut entries = Vec::with_capacity(n_entries.min(1 << 20));
        for i in 0..n_entries {
            let step = r.u64()?;
            let code = r.take(1)?[0];
            if code != MECHANISM_CODE {
                return Err(format!(
                    "entry {i}: unknown mechanism code {code} (only {MECHANISM_CODE}, \
                     {MECHANISM}, is accounted)"
                ));
            }
            let sigma = r.f64()?;
            let sensitivity = r.f64()?;
            let sampling_rate = r.f64()?;
            let entry_delta = r.f64()?;
            let gamma_step = r.f64()?;
            let epsilon_after = r.f64()?;
            let alpha = r.f64()?;
            let max_occurrences = r.u64()? as usize;
            let batch_size = r.u64()? as usize;
            let container_size = r.u64()? as usize;
            if step != i as u64 + 1 {
                return Err(format!("entry {i}: step {step} out of sequence"));
            }
            entries.push(LedgerEntry {
                step,
                sigma,
                sensitivity,
                sampling_rate,
                config: SubsampledConfig {
                    max_occurrences,
                    batch_size,
                    container_size,
                },
                delta: entry_delta,
                gamma_step,
                epsilon_after,
                alpha,
            });
        }
        if r.pos != bytes.len() {
            return Err(format!(
                "trailing garbage: {} bytes after the last entry",
                bytes.len() - r.pos
            ));
        }
        Ok(PrivacyLedger {
            accountant: RdpAccountant::with_state(orders, gammas),
            delta,
            entries,
        })
    }
}

/// Bounds-checked little-endian cursor for [`PrivacyLedger::from_bytes`].
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.bytes.len() {
            return Err(format!(
                "truncated ledger: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            ));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
}

/// Replays RDP accounting from telemetry-layer ledger records alone:
/// composes each step's recorded `(σ, N_g, B, m)` on a fresh accountant
/// over `orders`, and converts with each record's δ.
/// Returns the cumulative `(ε, best α)` after every record — the values
/// the accountant reported when the run happened, reconstructed without
/// the accountant.
pub fn replay_records(records: &[LedgerRecord], orders: &[f64]) -> Vec<(f64, f64)> {
    let mut accountant = RdpAccountant::new(orders);
    records
        .iter()
        .map(|record| {
            let config = SubsampledConfig {
                max_occurrences: record.max_occurrences as usize,
                batch_size: record.batch_size as usize,
                container_size: record.container_size as usize,
            };
            accountant.compose_subsampled_gaussian(record.sigma, &config, 1);
            accountant.epsilon(record.delta)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(ledger: &mut PrivacyLedger, sigma: f64, config: &SubsampledConfig, steps: usize) {
        for _ in 0..steps {
            ledger.record_step(sigma, 2.0, config);
        }
    }

    #[test]
    fn ledger_epsilon_is_the_accountants_bit_for_bit() {
        // A mixed (σ, N_g, B, m) sequence: after every step the ledger's
        // (ε, α) has the same bits as an accountant composed step by step.
        let steps = [
            (1.2, 4, 16, 256),
            (3.5, 12, 32, 96),
            (0.8, 2, 8, 1024),
            (1.2, 4, 16, 256),
            (2.5, 8, 16, 128),
            (0.6, 1, 4, 4),
        ];
        let mut ledger = PrivacyLedger::new(1e-5);
        let mut acct = RdpAccountant::default();
        for (sigma, max_occurrences, batch_size, container_size) in steps {
            let config = SubsampledConfig {
                max_occurrences,
                batch_size,
                container_size,
            };
            let (eps, alpha) = ledger.record_step(sigma, 2.0, &config);
            acct.compose_subsampled_gaussian(sigma, &config, 1);
            let (want_eps, want_alpha) = acct.epsilon(1e-5);
            assert_eq!(eps.to_bits(), want_eps.to_bits(), "σ={sigma}");
            assert_eq!(alpha.to_bits(), want_alpha.to_bits(), "σ={sigma}");
            assert_eq!(ledger.cumulative_epsilon(), Some(want_eps));
        }
        assert_eq!(ledger.entries().len(), steps.len());
    }

    #[test]
    fn replay_matches_accountant_across_configurations() {
        // Acceptance bar: replayed cumulative ε within 1e-9 of the
        // accountant's, across at least two (σ, sampling-rate) configs.
        let cases = [
            (
                1.2,
                SubsampledConfig {
                    max_occurrences: 4,
                    batch_size: 16,
                    container_size: 256,
                },
                20,
            ),
            (
                3.5,
                SubsampledConfig {
                    max_occurrences: 12,
                    batch_size: 32,
                    container_size: 96,
                },
                35,
            ),
            (
                0.8,
                SubsampledConfig {
                    max_occurrences: 2,
                    batch_size: 8,
                    container_size: 1024,
                },
                50,
            ),
        ];
        for (sigma, config, steps) in cases {
            let mut ledger = PrivacyLedger::new(1e-5);
            fill(&mut ledger, sigma, &config, steps);
            ledger.verify_replay(1e-9).expect("replay invariant");

            // And against the accountant's one-shot composition.
            let mut acct = RdpAccountant::default();
            acct.compose_subsampled_gaussian(sigma, &config, steps);
            let (acct_eps, _) = acct.epsilon(1e-5);
            let replayed = replay_records(&ledger.to_records(), ledger.accountant().orders());
            let (replay_eps, _) = *replayed.last().unwrap();
            assert!(
                (acct_eps - replay_eps).abs() < 1e-9,
                "σ={sigma} q={}: accountant ε = {acct_eps}, replayed ε = {replay_eps}",
                config.affected_fraction(),
            );
        }
    }

    #[test]
    fn replay_handles_mixed_mechanism_parameters() {
        // σ changing mid-run (e.g. adaptive schedules) must replay too.
        let c1 = SubsampledConfig {
            max_occurrences: 4,
            batch_size: 16,
            container_size: 256,
        };
        let c2 = SubsampledConfig {
            max_occurrences: 8,
            batch_size: 16,
            container_size: 128,
        };
        let mut ledger = PrivacyLedger::new(1e-6);
        fill(&mut ledger, 1.5, &c1, 10);
        fill(&mut ledger, 2.5, &c2, 10);
        assert_eq!(ledger.entries().len(), 20);
        ledger.verify_replay(1e-9).expect("mixed-parameter replay");
        // ε strictly grows across the whole run.
        for w in ledger.entries().windows(2) {
            assert!(w[1].epsilon_after > w[0].epsilon_after);
        }
    }

    #[test]
    fn verify_replay_detects_tampering() {
        let config = SubsampledConfig {
            max_occurrences: 4,
            batch_size: 16,
            container_size: 256,
        };
        let mut ledger = PrivacyLedger::new(1e-5);
        fill(&mut ledger, 1.2, &config, 3);
        ledger.entries[1].epsilon_after += 1e-6;
        let err = ledger.verify_replay(1e-9).unwrap_err();
        assert!(err.contains("step 2"), "{err}");
    }

    #[test]
    fn binary_round_trip_is_lossless() {
        let config = SubsampledConfig {
            max_occurrences: 4,
            batch_size: 16,
            container_size: 256,
        };
        let mut ledger = PrivacyLedger::new(1e-5);
        fill(&mut ledger, 1.2, &config, 7);
        let bytes = ledger.to_bytes();
        let back = PrivacyLedger::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.entries(), ledger.entries());
        assert_eq!(back.accountant().orders(), ledger.accountant().orders());
        assert_eq!(back.delta(), ledger.delta());
        // γ state restores bit-for-bit …
        let gammas = back.accountant().gammas();
        for (a, b) in ledger.accountant().gammas().iter().zip(gammas) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        back.verify_replay(1e-9).expect("decoded ledger replays");
        // … so continuing the run on the decoded ledger matches exactly.
        let mut cont_orig = ledger.clone();
        let mut cont_back = back;
        let a = cont_orig.record_step(1.2, 2.0, &config);
        let b = cont_back.record_step(1.2, 2.0, &config);
        assert_eq!(a.0.to_bits(), b.0.to_bits());
    }

    #[test]
    fn decode_rejects_corruption_never_panics() {
        let config = SubsampledConfig {
            max_occurrences: 4,
            batch_size: 16,
            container_size: 256,
        };
        let mut ledger = PrivacyLedger::new(1e-5);
        fill(&mut ledger, 1.2, &config, 3);
        let bytes = ledger.to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(PrivacyLedger::from_bytes(&bad).is_err());
        // Every truncation point decodes to a clean error.
        for cut in 0..bytes.len() {
            assert!(
                PrivacyLedger::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        // Trailing garbage is detected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(PrivacyLedger::from_bytes(&padded)
            .unwrap_err()
            .contains("trailing"));
        // Any mechanism code but 0 is an error naming it, not a panic;
        // 1 is the Laplace-mixture code older builds wrote for HP.
        // First entry's mechanism byte sits after magic+version+counts+grids.
        let mech_offset = 4 + 4 + 8 + 20 * 8 * 2 + 8 + 8 + 8;
        for code in [1, 9] {
            let mut wrong = bytes.clone();
            wrong[mech_offset] = code;
            let err = PrivacyLedger::from_bytes(&wrong).unwrap_err();
            assert!(err.contains(&format!("mechanism code {code}")), "{err}");
        }
    }

    #[test]
    fn accountant_resumes_from_ledger_state() {
        let config = SubsampledConfig {
            max_occurrences: 4,
            batch_size: 16,
            container_size: 256,
        };
        let mut ledger = PrivacyLedger::new(1e-5);
        fill(&mut ledger, 1.2, &config, 10);
        // Accountant seeded from ledger state + 10 more steps must equal
        // a fresh accountant doing all 20.
        let mut resumed = ledger.accountant().clone();
        resumed.compose_subsampled_gaussian(1.2, &config, 10);
        let mut full = RdpAccountant::default();
        full.compose_subsampled_gaussian(1.2, &config, 20);
        let (eps_resumed, _) = resumed.epsilon(1e-5);
        let (eps_full, _) = full.epsilon(1e-5);
        assert!(
            (eps_resumed - eps_full).abs() < 1e-12,
            "resumed {eps_resumed} vs full {eps_full}"
        );
    }

    #[test]
    fn entries_carry_the_mechanism_parameters() {
        let config = SubsampledConfig {
            max_occurrences: 4,
            batch_size: 16,
            container_size: 256,
        };
        let mut ledger = PrivacyLedger::new(1e-5);
        ledger.record_step(2.0, 3.5, &config);
        let e = &ledger.entries()[0];
        assert_eq!(e.step, 1);
        assert_eq!(e.sigma, 2.0);
        assert_eq!(e.sensitivity, 3.5);
        assert!((e.sampling_rate - 4.0 / 256.0).abs() < 1e-15);
        assert!(e.gamma_step > 0.0);
        assert!(e.epsilon_after > 0.0);
        assert!(e.alpha > 1.0);
        let record = e.to_record();
        assert_eq!(record.mechanism, "subsampled_gaussian");
        assert_eq!(record.max_occurrences, 4);
        assert_eq!(record.epsilon_after, e.epsilon_after);
    }
}
