"""Claims scorecard: every checkable sentence of the paper, as a predicate.

:func:`run_claims` executes one check per claim and returns a scorecard —
the reproduction's self-audit.  Each claim carries its paper section, the
paper's wording/value, the measured value, and a pass flag.  The Section
V-A accuracy claims read the Figure 9 panels, which take CNN training, so
they are checked only when those panels are passed in; everything else
runs in seconds.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.early_termination import energy_accuracy_tradeoff
from ..fsu import FsuGemm, fsu_vs_usystolic_area, fsu_weight_storage
from ..hw import gates
from ..hw.array_cost import array_cost
from ..hw.pe_cost import PePosition, pe_cost
from ..schemes import ComputeScheme as CS
from ..sim.engine import simulate_layer
from ..system.tiled import scaling_curve
from ..unary.bitstream import Coding, quantize_unipolar
from ..unary.faults import binary_fault_error, unary_fault_error
from ..unary.multiply import stream_for_input, umul_bipolar, umul_unipolar
from ..unary.rng import LfsrSequence, NumberSequence, SobolSequence
from ..unary.vectorized import hub_mac_row
from ..workloads.alexnet import alexnet_layers
from ..workloads.presets import CLOUD, EDGE
from .accuracy import AccuracyResult, gemm_error_ranking
from .area import area_reductions
from .bandwidth import run_bandwidth_experiment
from .efficiency import run_efficiency_experiment
from .energy import (
    edp_improvements,
    energy_reductions,
    power_reductions,
    run_energy_experiment,
)
from .report import format_table
from .schemezoo import run_schemezoo_experiment
from .sweeps import sram_sizing_sweep

__all__ = ["ClaimResult", "run_claims", "format_scorecard"]

_UNARY_CONFIGS = ("Unary-32c", "Unary-64c", "Unary-128c")


@dataclasses.dataclass(frozen=True)
class ClaimResult:
    """Outcome of checking one paper claim."""

    section: str
    claim: str
    paper: str
    measured: str
    passed: bool


def _umul_error(sequence: type[NumberSequence], bits: int = 7) -> float:
    """Mean |count - exact| of the uMUL, in LSB, over an operand grid."""
    full = 1 << bits
    grid = range(8, full, 24)
    errors = [
        abs(
            umul_unipolar(
                a,
                b,
                bits,
                stream_sequence=sequence(bits),
                weight_sequence=sequence(bits),
            ).count
            - a * b / full
        )
        for a in grid
        for b in grid
    ]
    return sum(errors) / len(errors)


def _fsu_vs_hub_error() -> tuple[float, float]:
    """Summed |error| of five seeded 16-element dot products: FSU vs HUB.

    The FSU accumulates its products in the unary domain (a mux tree);
    a uSystolic column takes the same HUB products (:func:`hub_mac_row`)
    and adds them in binary.
    """
    fsu = FsuGemm(8)
    fsu_err = hub_err = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        w = rng.integers(-100, 101, size=16)
        x = rng.integers(-100, 101, size=16)
        exact = float(np.dot(w, x))
        hub = sum(
            float(hub_mac_row(int(xk), np.array([wk]), 8)[0]) for wk, xk in zip(w, x)
        )
        fsu_err += abs(fsu.dot(w, x) - exact)
        hub_err += abs(hub - exact)
    return fsu_err, hub_err


def _tiled_speedup(array) -> tuple[float, bool]:
    """V-H: speedup of 16 tiled instances over one, and whether the fabric binds.

    Edge platform without SRAM, AlexNet Conv1-3 repeated eight times.
    """
    one, many = scaling_curve(
        EDGE,
        array,
        EDGE.memory.without_sram(),
        alexnet_layers()[:3] * 8,
        instance_counts=(1, 16),
    )
    return many.throughput_gops / one.throughput_gops, many.fabric_bound


def _mean_over_configs(table: dict[str, dict[str, dict[str, float]]]) -> float:
    """Mean reduction vs Binary Parallel, averaged over 32c/64c/128c."""
    means = [table["Binary Parallel"][c]["mean"] for c in _UNARY_CONFIGS]
    return sum(means) / len(means)


def run_claims(accuracy: list[AccuracyResult] | None = None) -> list[ClaimResult]:
    """Evaluate the scorecard; see module docstring.

    ``accuracy`` is the three Figure 9 panels (easy, medium, hard), swept
    over at least EBT 6 and 10; when given, the Section V-A rows run too.
    """
    results: list[ClaimResult] = []

    def check(section: str, claim: str, paper: str, measured: str, passed: bool):
        results.append(ClaimResult(section, claim, paper, f"{measured}", passed))

    edge = {r.design: r.layers for r in run_bandwidth_experiment(EDGE)}
    convs = slice(0, 5)
    ur_pe = pe_cost(CS.USYSTOLIC_RATE, 8, PePosition.LEFTMOST)

    # --- II-B4a: FSU accumulates in the unary domain, one instance each ---
    fsu_err, hub_err = _fsu_vs_hub_error()
    check(
        "II-B4a",
        "FSU's unary-domain accumulation is far noisier than HUB's binary one",
        "suboptimal accuracy",
        f"{fsu_err / hub_err:.0f}x the HUB error",
        fsu_err > 3 * hub_err,
    )
    fsu_area = fsu_vs_usystolic_area(alexnet_layers(), CLOUD.rows, CLOUD.cols)
    check(
        "II-B4a",
        "one FSU instance per AlexNet layer dwarfs one uSystolic array",
        "multiple instances needed",
        f"{fsu_area['ratio']:.0f}x the {CLOUD.rows}x{CLOUD.cols} array's area",
        fsu_area["ratio"] > 100.0,
    )

    # --- II-B4b: sign-magnitude halves the bipolar cost -----------------
    uni = umul_unipolar(128, 128, 7).cycles
    bip = umul_bipolar(256, 256, 8).cycles
    check(
        "II-B4b",
        "unipolar sign-magnitude uMUL halves bipolar cycles",
        "2x",
        f"{bip / uni:.1f}x",
        bip == 2 * uni,
    )
    ug_mul = pe_cost(CS.UGEMM_RATE, 8, PePosition.LEFTMOST).mul
    check(
        "II-B4b",
        "uGEMM-H's bipolar MUL is much larger than the sign-magnitude MUL",
        "~2x",
        f"{ug_mul / ur_pe.mul:.2f}x",
        ug_mul > 1.5 * ur_pe.mul,
    )

    # --- III: reduced-resolution accumulation, bitstream reuse, RNG -------
    def acc_datapath(width: int) -> float:
        return gates.adder(width) + gates.dff(width) + gates.mux(width)

    reduced, full = acc_datapath(8 + 4), acc_datapath(2 * 8 + 4)
    check(
        "III-A",
        "the reduced-resolution accumulator shrinks the ACC datapath",
        ">30% smaller",
        f"{100 * (1 - reduced / full):.1f}% smaller",
        reduced < 0.7 * full,
    )
    shared = array_cost(CS.USYSTOLIC_RATE, EDGE.rows, EDGE.cols, 8).total_ge
    duplicated = EDGE.rows * EDGE.cols * ur_pe.total
    check(
        "III-B",
        "bitstream reuse beats per-PE RNG duplication in edge array area",
        ">20% smaller",
        f"{100 * (1 - shared / duplicated):.1f}% smaller",
        shared < 0.8 * duplicated,
    )
    tradeoff = energy_accuracy_tradeoff(8)
    rmses = [p.rmse for p in tradeoff]
    check(
        "III-C",
        "early termination trades accuracy for MAC cycles at every EBT step",
        "2^(n-1)+1 cycles",
        f"RMSE {rmses[0]:.3f} -> {rmses[-1]:.4f} over EBT "
        f"{tradeoff[0].ebt}-{tradeoff[-1].ebt}",
        all(a > b for a, b in zip(rmses, rmses[1:]))
        and all(p.mac_cycles == 2 ** (p.ebt - 1) + 1 for p in tradeoff),
    )
    sobol, lfsr = _umul_error(SobolSequence), _umul_error(LfsrSequence)
    check(
        "IV (RNG)",
        "the Sobol RNG multiplies more accurately than an LFSR",
        "high-quality Sobol",
        f"{sobol:.2f} vs {lfsr:.2f} LSB",
        sobol < lfsr,
    )

    # --- V-B: crawling bytes ---------------------------------------------
    ur128_conv_bw = max(r.dram_bandwidth_gbps for r in edge["Unary-128c"][convs])
    check(
        "V-B",
        "uSystolic-128c edge conv DRAM bandwidth stays ultra-low",
        "[0.11, 0.47] GB/s",
        f"{ur128_conv_bw:.2f} GB/s",
        ur128_conv_bw < 0.5,
    )
    bp_bw = max(r.dram_bandwidth_gbps for r in edge["Binary Parallel (no SRAM)"])
    check(
        "V-B",
        "binary parallel without SRAM demands far more DRAM bandwidth",
        "10.49 vs 0.47 GB/s",
        f"{bp_bw:.1f} vs {ur128_conv_bw:.2f} GB/s",
        bp_bw > 5 * ur128_conv_bw,
    )
    bp_sram_bw = max(r.dram_bandwidth_gbps for r in edge["Binary Parallel"])
    check(
        "V-B",
        "eliminating SRAM raises binary parallel's peak DRAM bandwidth",
        "3.03 -> 10.49 GB/s",
        f"{bp_sram_bw:.2f} -> {bp_bw:.2f} GB/s",
        bp_bw > bp_sram_bw,
    )
    ur128_bw = max(r.dram_bandwidth_gbps for r in edge["Unary-128c"])
    check(
        "V-B",
        "uSystolic-128c edge DRAM bandwidth < 1 GB/s on every layer",
        "FC band [0.46, 1.08] GB/s",
        f"{ur128_bw:.2f} GB/s",
        ur128_bw < 1.0,
    )
    ug_bw = max(r.dram_bandwidth_gbps for r in edge["uGEMM-H"])
    check(
        "V-B",
        "uGEMM-H crawls slowest: peak DRAM bandwidth below uSystolic-128c",
        "lowest",
        f"{ug_bw:.2f} vs {ur128_bw:.2f} GB/s",
        ug_bw < ur128_bw,
    )

    # --- V-C: area ----------------------------------------------------------
    reds = area_reductions(EDGE)
    check(
        "V-C",
        "rate-coded uSystolic array area reduction from BP (edge)",
        "59.0%",
        f"{reds['array_UR']:.1f}%",
        abs(reds["array_UR"] - 59.0) < 6.0,
    )
    check(
        "V-C",
        "total on-chip area reduction, UR-noSRAM vs BP+SRAM (edge)",
        "91.3%",
        f"{reds['total_vs_bp']:.1f}%",
        abs(reds["total_vs_bp"] - 91.3) < 5.0,
    )

    # --- V-D: contention ------------------------------------------------
    edge_overhead = max(r.contention_overhead for r in edge["Unary-32c"][convs])
    check(
        "V-D",
        "edge conv memory contention is insignificant",
        "<= 2.7%",
        f"{100 * edge_overhead:.1f}%",
        edge_overhead < 0.05,
    )
    cloud_conv = alexnet_layers()[1]
    cloud_bp = simulate_layer(
        cloud_conv, CLOUD.array(CS.BINARY_PARALLEL), CLOUD.memory
    )
    check(
        "V-D",
        "cloud binary parallel suffers heavy contention",
        "161.8% mean overhead",
        f"{100 * cloud_bp.contention_overhead:.1f}% (Conv2)",
        cloud_bp.contention_overhead > 1.0,
    )
    conv1_ratio = (
        edge["Unary-32c"][0].throughput_gops / edge["Unary-128c"][0].throughput_gops
    )
    check(
        "V-D",
        "edge conv throughput falls almost linearly with MAC cycles",
        "129/33 = 3.9x (Conv1, 32c/128c)",
        f"{conv1_ratio:.2f}x",
        3.0 < conv1_ratio < 4.5,
    )

    # --- V-E: energy ------------------------------------------------------
    bp_onchip = [r.energy.on_chip for r in edge["Binary Parallel"]]
    if not bp_onchip:
        raise ValueError("no Binary Parallel layer results to compare against")
    bp_sram_leak = sum(r.energy.sram_leakage for r in edge["Binary Parallel"])
    check(
        "V-E",
        "SRAM leakage dominates binary on-chip energy",
        "dominates",
        f"{100 * bp_sram_leak / sum(bp_onchip):.0f}% of on-chip",
        bp_sram_leak > 0.5 * sum(bp_onchip),
    )
    ur32_onchip = [r.energy.on_chip for r in edge["Unary-32c"]]
    mean_red = sum(
        100 * (1 - u / b) for u, b in zip(ur32_onchip, bp_onchip)
    ) / len(bp_onchip)
    check(
        "V-E",
        "uSystolic-32c on-chip energy reduction (edge mean)",
        "~86% (within the [50, 99.1] band)",
        f"{mean_red:.1f}%",
        mean_red > 50.0,
    )
    conv_total_gain = (
        1 - edge["Unary-128c"][1].energy.total / edge["Binary Parallel"][1].energy.total
    )
    check(
        "V-E",
        "total (DRAM-dominated) energy gains are negative on convolutions",
        "negative",
        f"{100 * conv_total_gain:.1f}% (Conv2, 128c)",
        conv_total_gain < 0,
    )
    ug_energy = sum(r.energy.on_chip for r in edge["uGEMM-H"][convs])
    ur_energy = sum(r.energy.on_chip for r in edge["Unary-128c"][convs])
    check(
        "V-E",
        "uGEMM-H consumes over ~2x the energy of uSystolic",
        ">2x",
        f"{ug_energy / ur_energy:.1f}x",
        ug_energy > 1.5 * ur_energy,
    )
    ug_all = sum(r.energy.on_chip for r in edge["uGEMM-H"])
    ur_all = sum(r.energy.on_chip for r in edge["Unary-128c"])
    check(
        "V-E",
        "uGEMM-H costs over ~2x uSystolic-128c on all 8 layers, FCs too",
        ">2x",
        f"{ug_all / ur_all:.2f}x",
        ug_all > 1.5 * ur_all,
    )
    energy = run_energy_experiment(EDGE)
    edp_mean = _mean_over_configs(edp_improvements(energy))
    energy_mean = _mean_over_configs(energy_reductions(energy))
    check(
        "V-E",
        "on-chip EDP gains fall far short of the energy gains (edge mean)",
        "-487.8% vs 83.5%",
        f"{edp_mean:.1f}% vs {energy_mean:.1f}%",
        edp_mean < energy_mean,
    )

    # --- V-F: power ----------------------------------------------------------
    power_red = 1 - (
        edge["Unary-32c"][0].on_chip_power_w
        / edge["Binary Parallel"][0].on_chip_power_w
    )
    check(
        "V-F",
        "tremendous on-chip power reduction (edge)",
        "mean 98.4%",
        f"{100 * power_red:.1f}% (Conv1, 32c)",
        power_red > 0.9,
    )
    power_mean = _mean_over_configs(power_reductions(energy))
    check(
        "V-F",
        "on-chip power reduction, mean over layers and 32/64/128c (edge)",
        "mean 98.4%",
        f"{power_mean:.1f}%",
        power_mean > 90.0,
    )

    # --- V-G: efficiency (Figure 14) ---------------------------------------
    panels = [
        run_efficiency_experiment(platform, workload)
        for workload in ("alexnet", "mlperf")
        for platform in (EDGE, CLOUD)
    ]
    ordered = [
        p
        for p in panels
        if p.eei["Binary Parallel"]["Unary-32c"]
        > p.eei["Binary Parallel"]["Unary-64c"]
        > p.eei["Binary Parallel"]["Unary-128c"]
        > p.eei["Binary Parallel"]["uGEMM-H"]
    ]
    check(
        "V-G",
        "E.E.I. falls with MAC cycles: 32c > 64c > 128c > uGEMM-H",
        "every panel",
        f"{len(ordered)}/{len(panels)} panels",
        len(ordered) == len(panels),
    )
    edge_alexnet, _, edge_mlperf, _ = panels
    alexnet_eei = edge_alexnet.eei["Binary Parallel"]["Unary-32c"]
    mlperf_eei = edge_mlperf.eei["Binary Parallel"]["Unary-32c"]
    check(
        "V-G",
        "MLPerf's lower utilization dilutes the E.E.I. (edge, 32c)",
        "util 69.6% vs 97.1%",
        f"{mlperf_eei:.1f}x vs {alexnet_eei:.1f}x",
        mlperf_eei < alexnet_eei,
    )
    sweep = sram_sizing_sweep(
        alexnet_layers(), EDGE.array(CS.USYSTOLIC_RATE, ebt=6), EDGE.memory
    )
    best = min(sweep, key=lambda p: p.total_energy_j)
    check(
        "V-G",
        "a small SRAM minimises total energy (edge AlexNet, UR EBT 6)",
        "small-sized SRAM pays",
        f"{best.total_energy_j * 1e3:.1f} mJ at "
        f"{best.sram_bytes_per_variable // 1024} KB vs "
        f"{sweep[0].total_energy_j * 1e3:.1f} mJ without",
        0 < best.sram_bytes_per_variable < EDGE.memory.sram_bytes_per_variable,
    )

    # --- V-H: tiled instances share one channel --------------------------
    ur_up, _ = _tiled_speedup(EDGE.array(CS.USYSTOLIC_RATE, ebt=6))
    bp_up, bp_bound = _tiled_speedup(EDGE.array(CS.BINARY_PARALLEL))
    check(
        "V-H",
        "low bandwidth scales across tiled instances; binary saturates",
        "better scalability",
        f"{ur_up:.2f}x vs {bp_up:.2f}x at 16 instances",
        bp_bound and ur_up > 2 * bp_up,
    )

    # --- headline ---------------------------------------------------------
    eei = [
        (u.energy_efficiency() / b.energy_efficiency())
        for u, b in zip(edge["Unary-32c"], edge["Binary Serial"])
    ]
    check(
        "Abstract",
        "on-chip energy efficiency improved by up to ~112x (edge)",
        "112.2x",
        f"{max(eei):.1f}x",
        max(eei) > 50.0,
    )

    # --- post-uSystolic zoo ---------------------------------------------
    zoo = run_schemezoo_experiment(EDGE, layers=alexnet_layers()[:3])
    tub = sorted(
        (p for p in zoo if p.sparsity is not None), key=lambda p: p.sparsity
    )
    tub_runtimes = [p.runtime_s for p in tub]
    check(
        "zoo (ISVLSI'23)",
        "tubGEMM runtime falls monotonically as activation sparsity rises",
        "strictly decreasing",
        " > ".join(f"{t * 1e3:.0f}ms" for t in tub_runtimes),
        all(a > b for a, b in zip(tub_runtimes, tub_runtimes[1:])),
    )
    by_label = {p.label: p for p in zoo}
    check(
        "zoo (DiP)",
        "diagonal input feed beats the skewed weight-stationary schedule",
        "no skew/drain bubbles",
        f"{by_label['DiP'].runtime_s * 1e3:.2f} vs "
        f"{by_label['Binary Parallel'].runtime_s * 1e3:.2f} ms",
        by_label["DiP"].runtime_s < by_label["Binary Parallel"].runtime_s,
    )
    tu_mul = pe_cost(CS.TUGEMM_TEMPORAL, 8, PePosition.LEFTMOST).mul
    check(
        "zoo (ISCAS'23)",
        "tuGEMM's counter MUL is smaller than the Sobol C-BSG MUL",
        "no RNG area",
        f"{tu_mul:.0f} vs {ur_pe.mul:.0f} gates",
        tu_mul < ur_pe.mul,
    )

    # --- footnote 2 ---------------------------------------------------------
    storage = fsu_weight_storage(alexnet_layers())
    check(
        "fn. 2",
        "FSU needs ~61 MB of weight flip-flops for AlexNet",
        "61.1 MB > 24 MB TPU SRAM",
        f"{storage.storage_mb:.1f} MiB",
        storage.storage_bytes > 24 * 2**20,
    )

    # --- [16]: unary streams degrade gracefully --------------------------
    stream = stream_for_input(quantize_unipolar(0.5, 7), 7, Coding.RATE)
    unary_worst = max(unary_fault_error(stream, 1, seed=seed) for seed in range(10))
    binary_worst = max(binary_fault_error(64, bit, 8) for bit in range(8))
    check(
        "[16]",
        "one bit flip costs a unary stream 1 LSB, a binary word up to half",
        "graceful degradation",
        f"1/{1 / unary_worst:.0f} vs {binary_worst:g}",
        unary_worst == 1 / len(stream) and binary_worst == 0.5,
    )

    # --- V-A: accuracy (Figure 9) -----------------------------------------
    if accuracy is not None:
        errors = gemm_error_ranking(ebt=8, trials=5)
        check(
            "V-A",
            "GEMM error ranks FXP-o-res > uSystolic > FXP-i-res",
            "strict ordering",
            " > ".join(
                f"{errors[k]:.2f}" for k in ("fxp-o-res", "usystolic", "fxp-i-res")
            ),
            errors["fxp-o-res"] > errors["usystolic"] > errors["fxp-i-res"],
        )
        easy, _, hard = accuracy
        easy6 = easy.sweep["usystolic"][6]
        check(
            "V-A",
            "easy task barely drops: uSystolic@6 within 15 points of FP32",
            "barely any drop",
            f"{100 * easy6:.1f} vs {100 * easy.fp32_accuracy:.1f}",
            easy6 >= easy.fp32_accuracy - 0.15,
        )
        hard10 = hard.sweep["usystolic"][10]
        check(
            "V-A",
            "hard task saturates: uSystolic@10 within 10 points of FP32",
            "saturated by EBT 10",
            f"{100 * hard10:.1f} vs {100 * hard.fp32_accuracy:.1f}",
            hard10 >= hard.fp32_accuracy - 0.10,
        )
    return results


def format_scorecard(results: list[ClaimResult]) -> str:
    """Render the claim-by-claim PASS/FAIL scorecard table."""
    rows = [
        [
            "PASS" if r.passed else "FAIL",
            r.section,
            r.claim,
            r.paper,
            r.measured,
        ]
        for r in results
    ]
    passed = sum(r.passed for r in results)
    return format_table(
        ["", "sec", "claim", "paper", "measured"],
        rows,
        title=f"Reproduction scorecard: {passed}/{len(results)} claims hold",
    )
