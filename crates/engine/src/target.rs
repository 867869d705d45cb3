//! The technology target of a compilation, as the engine shares, parses
//! and fingerprints it.

use std::sync::Arc;

use paulihedral::Backend;
use qdevice::{CouplingMap, NoiseModel};

use crate::cache::Fingerprint;

/// The technology target of a compilation — the owned counterpart of the
/// core crate's borrowed [`Backend`], so it can be shared across worker
/// threads and hashed into cache keys.
#[derive(Clone, Debug)]
pub enum Target {
    /// Fault-tolerant backend: mapping is free, maximize cancellation.
    FaultTolerant,
    /// Near-term superconducting backend: coupling-constrained synthesis.
    Superconducting {
        /// The device coupling map.
        device: Arc<CouplingMap>,
        /// Optional calibration for error-aware routing decisions.
        noise: Option<Arc<NoiseModel>>,
    },
}

impl Target {
    /// A superconducting target without calibration data.
    pub fn superconducting(device: CouplingMap) -> Target {
        Target::Superconducting {
            device: Arc::new(device),
            noise: None,
        }
    }

    /// Parses a backend spec as used by the `phc` CLI and the compile
    /// service wire protocol: `ft`, `manhattan`, `melbourne`, `linear:N`,
    /// or `grid:RxC`. A `linear:` device is widened to at least
    /// `n_program` qubits so a program never fails for want of a wire.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an unknown or malformed spec,
    /// including a grid with a zero dimension or a `rows × cols` overflow.
    pub fn parse_spec(spec: &str, n_program: usize) -> Result<Target, String> {
        match spec {
            "ft" => Ok(Target::FaultTolerant),
            "manhattan" => Ok(Target::superconducting(qdevice::devices::manhattan_65())),
            "melbourne" => Ok(Target::superconducting(qdevice::devices::melbourne_16())),
            other => {
                if let Some(n) = other.strip_prefix("linear:") {
                    let n: usize = n.parse().map_err(|_| format!("bad linear size `{n}`"))?;
                    return Ok(Target::superconducting(qdevice::devices::linear(
                        n.max(n_program),
                    )));
                }
                if let Some(dims) = other.strip_prefix("grid:") {
                    let (r, c) = dims
                        .split_once('x')
                        .ok_or_else(|| format!("bad grid spec `{dims}`, expected RxC"))?;
                    let r: usize = r.parse().map_err(|_| format!("bad grid rows `{r}`"))?;
                    let c: usize = c.parse().map_err(|_| format!("bad grid cols `{c}`"))?;
                    if r == 0 || c == 0 || r.checked_mul(c).is_none() {
                        return Err(format!(
                            "bad grid size `{dims}`, expected RxC with R, C > 0"
                        ));
                    }
                    return Ok(Target::superconducting(qdevice::devices::grid(r, c)));
                }
                Err(format!(
                    "unknown backend `{other}` (ft|manhattan|melbourne|linear:N|grid:RxC)"
                ))
            }
        }
    }

    /// A borrowed [`Backend`] view for the core crate's entry points.
    pub fn as_backend(&self) -> Backend<'_> {
        match self {
            Target::FaultTolerant => Backend::FaultTolerant,
            Target::Superconducting { device, noise } => Backend::Superconducting {
                device,
                noise: noise.as_deref(),
            },
        }
    }

    /// Feeds the target's full configuration into a cache fingerprint:
    /// device size, every coupling edge, and (when present) the per-edge /
    /// per-qubit noise figures that steer SC routing.
    pub(crate) fn fingerprint(&self, h: &mut Fingerprint) {
        match self {
            Target::FaultTolerant => h.write_str("ft"),
            Target::Superconducting { device, noise } => {
                h.write_str("sc");
                h.write_usize(device.num_qubits());
                for &(a, b) in device.edges() {
                    h.write_usize(a);
                    h.write_usize(b);
                }
                match noise {
                    None => h.write_str("noiseless"),
                    Some(nm) => {
                        h.write_str("noise");
                        for &(a, b) in device.edges() {
                            h.write_f64(nm.cx_error(a, b));
                        }
                        for q in 0..device.num_qubits() {
                            h.write_f64(nm.sq_error(q));
                            h.write_f64(nm.readout_error(q));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc_qubits(spec: &str) -> usize {
        match Target::parse_spec(spec, 1) {
            Ok(Target::Superconducting { device, .. }) => device.num_qubits(),
            other => panic!("`{spec}` parsed to {other:?}"),
        }
    }

    #[test]
    fn grid_specs_need_positive_non_overflowing_dimensions() {
        assert_eq!(sc_qubits("grid:2x3"), 6);
        let big = format!("grid:{}x{}", usize::MAX / 2, 3);
        for bad in [
            "grid:0x4",
            "grid:4x0",
            "grid:0x0",
            big.as_str(),
            "grid:4",
            "grid:ax4",
        ] {
            let err = Target::parse_spec(bad, 1).expect_err(bad);
            assert!(err.starts_with("bad grid"), "{bad}: {err}");
        }
    }
}
