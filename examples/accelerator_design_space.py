"""Design-space exploration over the paper-scale workload.

Sweeps the N:M pattern and the activation-bus width through the DSE engine
(``repro.dse.run_sweep``) and compares the hybrid design against both dense
baselines on the three axes of the paper's evaluation: area (Fig. 7 right),
inference power (Fig. 7 left) and continual-learning EDP (Fig. 8).  Also
prints the storage/core mapping view (the "26 MB dense needs dual-core,
compressed fits one core" observation) and the sweep's Pareto frontier.

Run: ``python examples/accelerator_design_space.py``
"""

from repro.core import (CoreConfig, DenseCIMDesign, HybridMapper,
                        HybridSparseDesign, dense_core_requirement,
                        paper_workload)
from repro.dse import SweepSpec, frontier_doc, run_sweep
from repro.harness.reporting import format_table
from repro.sparsity import NMPattern

workload = paper_workload()
print(f"workload: {workload.name}")
print(f"  dense storage: {workload.dense_bytes() / 2**20:.1f} MB "
      f"(INT8), learnable fraction {workload.learnable_fraction:.1%}, "
      f"{workload.total_macs / 1e9:.1f} GMACs/inference")
print(f"  dense mapping needs {dense_core_requirement(workload)} cores "
      f"of {CoreConfig().mram_capacity_bytes / 2**20:.0f} MB\n")

# ------------------------------------------------------------ pattern sweep
PATTERNS = ("1:16", "1:8", "2:8", "1:4", "2:4")
BUS_BITS = (64, 128, 256)
result = run_sweep(spec=SweepSpec(patterns=PATTERNS, bus_bits=BUS_BITS))
metrics = {(r["config"]["pattern"], r["config"]["bus_bits"]): r["metrics"]
           for r in result["records"]}

sram_ref = DenseCIMDesign("sram", "all", name="SRAM[29]")
ref_area = sram_ref.area(workload).total_mm2
ref_power = sram_ref.inference(workload).avg_power_mw
edp_ref = metrics[("1:8", 128)]["training_edp_js"]

rows = []
for name in PATTERNS:
    pattern = NMPattern.parse(name)
    storage = HybridMapper(pattern).storage_report(workload)
    met = metrics[(name, 128)]
    rows.append([name, f"{pattern.sparsity:.0%}",
                 storage["cores_used"],
                 (storage["sram_bytes"] + storage["mram_bytes"]) / 2**20,
                 met["area_mm2"] / ref_area,
                 met["inference_power_mw"] / ref_power,
                 met["training_edp_js"] / edp_ref])

print(format_table(
    ["Pattern", "Sparsity", "Cores", "Storage (MB)", "Area (rel SRAM)",
     "Power (rel SRAM)", "Train EDP (rel 1:8)"],
    rows, title="Hybrid design: N:M pattern sweep (128-bit bus)"))

# --------------------------------------------------------- Pareto frontier
print()
doc = frontier_doc(result)
print(format_table(
    ["Pattern", "Bus", "Area (rel SRAM)", "Power (rel SRAM)",
     "Train EDP (rel 1:8)", "Density"],
    [[r["config"]["pattern"], r["config"]["bus_bits"],
      r["metrics"]["area_mm2"] / ref_area,
      r["metrics"]["inference_power_mw"] / ref_power,
      r["metrics"]["training_edp_js"] / edp_ref, r["metrics"]["density"]]
     for r in doc["frontier"]],
    title=f"Pareto frontier: {len(doc['frontier'])} of {doc['configs']} "
          "configs (pattern x bus width)"))

# ---------------------------------------------------- baseline comparison
print()
baseline_rows = []
for label, design in [
        ("SRAM[29] dense", DenseCIMDesign("sram", "learnable")),
        ("MRAM[30] dense", DenseCIMDesign("mram", "learnable")),
        ("Hybrid 1:4", HybridSparseDesign(NMPattern(1, 4))),
        ("Hybrid 1:8", HybridSparseDesign(NMPattern(1, 8)))]:
    area = design.area(workload).total_mm2
    perf = design.inference(workload)
    train = design.training_step(workload)
    baseline_rows.append([label, area / ref_area,
                          perf.avg_power_mw / ref_power,
                          train.edp_js / edp_ref])

print(format_table(
    ["Design", "Area (rel)", "Power (rel)", "RepNet-train EDP (rel 1:8)"],
    baseline_rows, title="Hybrid vs single-technology designs"))
