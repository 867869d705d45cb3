//! Beyond-Table-1 scale workloads: condensed-matter lattices at 100 to
//! 1000+ qubits, for the scaling benchmarks and the `phc` `workload:`
//! pseudo-inputs.
//!
//! Names are `<model>-<dims>` where `<model>` is `Ising` or `Heisen` and
//! `<dims>` is a single site count (`Ising-1000` — a 1000-site chain) or
//! an `x`-separated cuboid (`Heisen-32x32` — a 1024-qubit grid). The
//! couplings match the Table 1 spin benchmarks (`J = 1.0`, `dt = 0.1`),
//! so the scale rows are the same physics at larger n.

use paulihedral::ir::PauliIR;

use crate::spin;

/// The preset scale rows the benches and the CI smoke use, smallest
/// first: 1D chains at 100/500/1000 sites plus a 32×32 grid (1024
/// qubits), for both spin models.
pub const NAMES: [&str; 8] = [
    "Ising-100",
    "Heisen-100",
    "Ising-500",
    "Heisen-500",
    "Ising-1000",
    "Heisen-1000",
    "Ising-32x32",
    "Heisen-32x32",
];

/// Generates a scale workload from its `<model>-<dims>` name; `None` if
/// the name does not parse (unknown model, empty or zero dimension).
pub fn named_scale_ir(name: &str) -> Option<PauliIR> {
    let (model, dims_spec) = name.split_once('-')?;
    let dims: Vec<usize> = dims_spec
        .split('x')
        .map(|d| d.parse().ok())
        .collect::<Option<_>>()?;
    if dims.is_empty() || dims.contains(&0) {
        return None;
    }
    match model {
        "Ising" => Some(spin::ising_ir(&dims, 1.0, 0.1)),
        "Heisen" => Some(spin::heisenberg_ir(&dims, 1.0, 0.1)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_name_parses() {
        for name in NAMES {
            let ir = named_scale_ir(name).unwrap_or_else(|| panic!("{name} must parse"));
            assert!(ir.num_qubits() >= 100, "{name}");
        }
    }

    #[test]
    fn chain_and_grid_shapes() {
        let chain = named_scale_ir("Ising-1000").unwrap();
        assert_eq!(chain.num_qubits(), 1000);
        assert_eq!(chain.total_strings(), 999);
        let grid = named_scale_ir("Heisen-32x32").unwrap();
        assert_eq!(grid.num_qubits(), 1024);
        // 2·32·31 grid edges × 3 Pauli flavours.
        assert_eq!(grid.total_strings(), 2 * 32 * 31 * 3);
    }

    #[test]
    fn malformed_names_are_rejected() {
        for bad in [
            "Ising",
            "Ising-",
            "Ising-0",
            "Ising-2x0",
            "Hubbard-10",
            "Ising-1D",
        ] {
            assert!(named_scale_ir(bad).is_none(), "{bad}");
        }
    }
}
