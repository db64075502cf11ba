#!/usr/bin/env python3
"""The paper's quantitative claims as predicates over EXPERIMENTS.json.

Usage: paper_claims.py [EXPERIMENTS.json]

A fingerprint catches any change to a result; these checks catch a
change to its meaning. Each claim records the paper's value, the
measured value and the tolerance side by side, and every tolerance
comes from the paper's own number: its band, its stated precision,
or the order of magnitude it names. Only deterministic cells are
read, so a result is a pure function of the file.

Verdicts:
  pass       the measured value satisfies the paper's claim.
  FAIL       it does not: the reproduction broke this claim.
  deviation  a named, explained exception. The measured value misses
             the paper but must stay inside the band its explanation
             documents (EXPERIMENTS.md); leaving that band fails.
  xfail      a known failing claim that a named ROADMAP item must
             fix. If it starts passing the run fails, so the fix
             also moves the claim to the passing set.

Exit status 0 when every claim is pass, deviation or xfail.
"""

import json
import os
import sys

GIB = 1 << 30

# Fig 4b, Fig 7 and Table 4 rows, by the paper's application names.
APPS = ["MD5", "SHA", "AES", "GRN", "FIR", "SW", "RSD", "GAU", "GRS",
        "SBL", "SSSP", "BTC"]
# Fig 7: the four that saturate the interconnect beyond ~4 jobs.
SATURATING = ["GAU", "GRS", "SBL", "SSSP"]
# Table 4: partners that leave MemBench ~1.0x, and the heavy one.
LIGHT = ["GRN", "BTC", "LL"]


class Report:
    def __init__(self):
        self.records = []

    def add(self, cid, paper, measured, tolerance, ok, kind="claim",
            note=""):
        if kind == "claim":
            verdict = "pass" if ok else "FAIL"
        elif kind == "deviation":
            verdict = "deviation" if ok else "FAIL"
        else:  # xfail: ok is whether the paper's claim holds
            verdict = "FAIL (xpass)" if ok else "xfail"
        self.records.append((cid, paper, measured, tolerance, verdict,
                             note))

    def failed(self):
        return [r for r in self.records if r[4].startswith("FAIL")]

    def print(self):
        widths = [max(len(r[i]) for r in self.records)
                  for i in range(5)]
        head = ("claim", "paper", "measured", "tolerance", "verdict")
        widths = [max(w, len(h)) for w, h in zip(widths, head)]
        fmt = "  ".join("%%-%ds" % w for w in widths)
        print(fmt % head)
        for r in self.records:
            print(fmt % r[:5])
            if r[5] and r[4] != "pass":
                print("    " + r[5])


def tables(data, bench):
    for b in data["benches"]:
        if b["bench"] == bench:
            return b["tables"]
    raise KeyError("bench %s missing from the file" % bench)


def table(data, bench, title_prefix):
    for t in tables(data, bench):
        if t["title"].startswith(title_prefix):
            return {r["label"]: r["metrics"] for r in t["rows"]}
    raise KeyError("%s: no table '%s...'" % (bench, title_prefix))


def size_bytes(label):
    units = {"K": 1 << 10, "M": 1 << 20, "G": GIB}
    return int(label[:-1]) * units[label[-1]]


def span(values, fmt="%.2f"):
    lo, hi = min(values), max(values)
    return fmt % lo if lo == hi else (fmt + "-" + fmt) % (lo, hi)


def within(v, lo, hi):
    return lo <= v <= hi


# ------------------------------------------------------------- Fig 1
def fig1(data, rep):
    rows = table(data, "fig1_sssp_models", "Fig 1")
    for setting, sfx in (("native", ""), ("virtualized", "_virt")):
        wins = [min(m["hc_config%s_s" % sfx], m["hc_copy%s_s" % sfx]) /
                m["shared%s_s" % sfx] for m in rows.values()]
        rep.add("fig1.wins.%s" % setting,
                "shared memory faster at every size",
                "hc/shared %s" % span(wins, "%.2fx"), "> 1x",
                min(wins) > 1.0)

    # "17-60 % faster natively, 37-85 % virtualized": the processing
    # time shared memory saves against each host-centric model.
    def saved(m, sfx):
        s = m["shared%s_s" % sfx]
        return [100 * (1 - s / m["hc_config%s_s" % sfx]),
                100 * (1 - s / m["hc_copy%s_s" % sfx])]

    sparse = [l for l, m in rows.items() if m["edges"] <= 160000]
    dense = [l for l in rows if l not in sparse]
    v = [x for l in dense for x in saved(rows[l], "")]
    rep.add("fig1.saved.native", "17-60 %", span(v, "%.1f") + " %",
            "paper band", within(min(v), 17, 60) and
            within(max(v), 17, 60))
    v = [x for l in sparse for x in saved(rows[l], "")]
    rep.add("fig1.saved.native.sparse_end", "17-60 %",
            span(v, "%.1f") + " %",
            "60-70 % documented", within(min(v), 55, 70) and
            max(v) <= 70, kind="deviation",
            note="at 4-8 edges/vertex the per-segment configuration "
            "cost dominates tiny segments, so the gap overshoots "
            "(EXPERIMENTS.md, Fig 1)")
    v = [x for m in rows.values() for x in saved(m, "_virt")]
    rep.add("fig1.saved.virtualized", "37-85 %", span(v, "%.1f") + " %",
            "paper band", within(min(v), 37, 85) and
            within(max(v), 37, 85))


# ------------------------------------------------------------- Fig 4
def fig4(data, rep):
    a = table(data, "fig4_overhead", "Fig 4a")
    # The paper quotes one decimal; a simulator without the testbed's
    # jitter must land within one percentage point of it.
    for label, paper in (("UPI", 124.2), ("PCIe", 111.1)):
        v = a[label]["normalized_pct"]
        rep.add("fig4a.%s" % label, "%.1f %%" % paper, "%.2f %%" % v,
                "+-1 pp", abs(v - paper) <= 1.0)
    b = table(data, "fig4_overhead", "Fig 4b")
    v = b["MB"]["normalized_pct"]
    rep.add("fig4b.MB", "90.1 %", "%.2f %%" % v, "+-1 pp",
            abs(v - 90.1) <= 1.0)
    for app in APPS:
        v = b[app]["normalized_pct"]
        # 92.7-100 % for real applications; half the quoted 0.1 %
        # precision of rounding at the top.
        ok = within(v, 92.7, 100.05)
        if app == "SSSP":
            rep.add("fig4b.SSSP", "92.7-100 %", "%.2f %%" % v,
                    "paper band", ok, kind="xfail",
                    note="ROADMAP item 2: the monitor's one-per-two-"
                    "cycles injection limit is counted in accelerator "
                    "cycles, halving a 200 MHz issue-bound engine")
        else:
            rep.add("fig4b.%s" % app, "92.7-100 %", "%.2f %%" % v,
                    "paper band", ok)


# ------------------------------------------------------- Fig 5 and 6
def reach_of(title):
    # 512 IOTLB entries: 1 GB of 2 MB pages, 2 MB of 4 KB pages.
    return GIB if "(2M pages)" in title else 2 << 20


def conflict_free(label, jobs, reach):
    # Flat while the total fits the IOTLB reach and each tenant's set
    # fits its 1/8 share of it (the paper's 128 MB conflict budget).
    total = size_bytes(label)
    return total <= reach and total // jobs <= reach // 8


def page_tag(title):
    return "2M" if "(2M pages)" in title else "4K"


def fig5(data, rep):
    flat = {}
    for t in tables(data, "fig5_latency"):
        reach = reach_of(t["title"])
        chan = "UPI" if "UPI" in t["title"] else "PCIe"
        tag = "%s.%s" % (page_tag(t["title"]), chan)
        rows = {r["label"]: r["metrics"] for r in t["rows"]}
        labels = sorted(rows, key=size_bytes)
        base = rows[labels[0]]
        devs, cliffs = [], []
        for j in (1, 2, 4, 8):
            key = "lat_ns_%dj" % j
            for l in labels:
                if conflict_free(l, j, reach):
                    devs.append(abs(rows[l][key] / base[key] - 1))
                    flat.setdefault((page_tag(t["title"]), l, j),
                                    {})[chan] = rows[l][key]
            cliffs.append(rows[labels[-1]][key] / base[key])
        rep.add("fig5.%s.flat" % tag, "flat within reach",
                "max dev %.2f %%" % (100 * max(devs)), "1 %",
                max(devs) <= 0.01)
        # Beyond reach every access pays a walk: on PCIe's 2x larger
        # base the same walk is a smaller ratio than on UPI's.
        rep.add("fig5.%s.cliff" % tag, "steep climb past reach",
                "x%s at 8x reach" % span(cliffs),
                ">= 1.4x flat", min(cliffs) >= 1.4)
    for tag in ("2M", "4K"):
        gaps = [c["PCIe"] - c["UPI"] for (pg, _, _), c in flat.items()
                if pg == tag and len(c) == 2]
        rep.add("fig5.%s.pcie_minus_upi" % tag, "~500 ns",
                "%s ns" % span(gaps, "%.0f"), "+-10 %",
                within(min(gaps), 450, 550) and
                within(max(gaps), 450, 550))


def fig6(data, rep):
    for t in tables(data, "fig6_throughput"):
        reach = reach_of(t["title"])
        write = "write" in t["title"]
        tag = "%s.%s" % (page_tag(t["title"]),
                         "write" if write else "read")
        rows = {r["label"]: r["metrics"] for r in t["rows"]}
        labels = sorted(rows, key=size_bytes)
        if not write:
            for jobs, paper in (((1,), 12.8), ((2, 4, 8), 14.2)):
                v = [rows[l]["gbps_%dj" % j] for j in jobs
                     for l in labels if conflict_free(l, j, reach)]
                rep.add("fig6.%s.plateau_%sj" %
                        (tag, "1" if jobs == (1,) else "n"),
                        "%.1f GB/s" % paper, "%s GB/s" % span(v),
                        "+-1 %", within(min(v), paper * 0.99,
                                        paper * 1.01) and
                        within(max(v), paper * 0.99, paper * 1.01))
        # "An order of magnitude by 8 GB": the 8x-reach cell against
        # the same job count's smallest working set.
        drops = [rows[labels[-1]]["gbps_%dj" % j] /
                 rows[labels[0]]["gbps_%dj" % j] for j in (1, 2, 4, 8)]
        rep.add("fig6.%s.cliff" % tag, "10x drop at 8x reach",
                "x%s" % span(drops, "%.3f"), "<= 0.1x",
                max(drops) <= 0.1)


# ------------------------------------------------------------- Fig 7
def fig7(data, rep):
    rows = table(data, "fig7_spatial_scaling", "Fig 7")
    x8 = [rows[a]["x8j"] for a in APPS]
    rep.add("fig7.band", "1.98-7x at 8 jobs",
            "%.2f-%.2fx" % (min(x8), max(x8)), "3.0-8.0x documented",
            within(min(x8), 2.95, 3.2) and within(max(x8), 7.8, 8.05),
            kind="deviation",
            note="the fully pipelined SSSP engine draws more single-"
            "job bandwidth than the paper's, and GRN/SW/BTC scale "
            "perfectly (EXPERIMENTS.md, Fig 7)")
    sat = [rows[a]["x8j"] / rows[a]["x4j"] for a in SATURATING]
    rep.add("fig7.saturating_flat", "GAU/GRS/SBL/SSSP flat past 4",
            "x8/x4 %s" % span(sat), "<= 1.25", max(sat) <= 1.25)
    rest = [rows[a]["x8j"] / rows[a]["x4j"] for a in APPS
            if a not in SATURATING]
    rep.add("fig7.others_scale", "the rest keep scaling",
            "x8/x4 %s" % span(rest), ">= 1.5", min(rest) >= 1.5)


# ------------------------------------------------------------- Fig 8
def fig8(data, rep):
    rows = table(data, "fig8_temporal", "Fig 8")
    keys = ["x2j", "x4j", "x8j", "x16j"]
    for label, paper in (("LinkedList", 0.5), ("MemBench", 0.7)):
        loss = [100 * (1 - rows[label][k]) for k in keys]
        rep.add("fig8.%s.loss" % label, "~%.1f %%" % paper,
                "%s %%" % span(loss), "+-0.5 pp",
                within(min(loss), max(0.0, paper - 0.5), paper + 0.5)
                and max(loss) <= paper + 0.5)
    for label in ("LinkedList", "MemBench", "MD5 worst case"):
        loss = [100 * (1 - rows[label][k]) for k in keys]
        rep.add("fig8.%s.flat" % label.split()[0],
                "flat from 2 to 16 jobs",
                "16j - 2j %+.2f pp" % (loss[-1] - loss[0]), "<= 0.5 pp",
                loss[-1] - loss[0] <= 0.5)
    loss = [100 * (1 - rows["MD5 worst case"][k]) for k in keys]
    rep.add("fig8.MD5_worst_case", "~9 % (estimate)",
            "%s %%" % span(loss), "7.0-7.6 % documented",
            within(min(loss), 7.0, 7.6) and max(loss) <= 7.6,
            kind="deviation",
            note="the paper's ~9 % estimates saving every occupied "
            "resource; this MD5 model's context is smaller "
            "(EXPERIMENTS.md, Fig 8)")


# ----------------------------------------------------------- Table 3
def table3(data, rep):
    rows = table(data, "table3_fairness_homo", "Table 3")
    pct = {a: m["range_over_mean_1e4"] / 100 for a, m in rows.items()}
    rest = [v for a, v in pct.items() if a != "SSSP"]
    rep.add("table3.range", "<= 1 % except SSSP",
            "%s %%" % span(rest), "1 %", max(rest) <= 1.0)
    rep.add("table3.SSSP_outlier", "SSSP largest (5.95 %)",
            "%.2f %% (next %.2f %%)" % (pct["SSSP"], max(rest)),
            "largest", pct["SSSP"] > max(rest))


# ----------------------------------------------------------- Table 4
def table4(data, rep):
    rows = table(data, "table4_fairness_hetero", "Table 4")
    x = {a: m["normalized_mb_tput"] for a, m in rows.items()
         if "normalized_mb_tput" in m}
    middle = [a for a in x if a not in LIGHT + ["MB", "MD5"]]
    # Table 4 quotes two decimals: 0.01 is its resolution.
    rep.add("table4.floor", ">= 0.5x everywhere",
            "min %.2fx" % min(x.values()), "0.01",
            min(x.values()) >= 0.49)
    rep.add("table4.order.heavy", "MB partner lowest (0.5x)",
            "MB %.2fx < %.2fx" % (x["MB"], min(x[a] for a in middle)),
            "0.01", x["MB"] < min(x[a] for a in middle) - 0.01 and
            abs(x["MB"] - 0.5) <= 0.1)
    light = min(x[a] for a in LIGHT)
    rep.add("table4.order.light", "GRN/BTC/LL ~1.0x, highest",
            "%.3fx >= %.3fx" % (light, max(x[a] for a in middle)),
            "0.01", light >= 0.99 and
            light >= max(x[a] for a in middle) - 0.01)
    rep.add("table4.MD5", "0.50x", "%.2fx" % x["MD5"],
            "0.92-0.96x documented", within(x["MD5"], 0.92, 0.96),
            kind="deviation",
            note="MD5's demand is calibrated to its Fig 7 scaling "
            "(~7x at eight instances), so it takes ~6 % of MemBench's "
            "bandwidth, not half (EXPERIMENTS.md, Table 4)")


# -------------------------------------------------------------- 6.8
def sec68(data, rep):
    rows = table(data, "sec68_sched_fairness", "Section 6.8").values()
    avg = sum(m["avg_err_pct"] for m in rows) / len(rows)
    worst = max(m["max_err_pct"] for m in rows)
    rep.add("sec68.avg_error", "0.32 %", "%.2f %%" % avg, "<= paper",
            avg <= 0.32)
    rep.add("sec68.max_error", "1.42 %", "%.2f %%" % worst, "<= paper",
            worst <= 1.42)


def main(argv):
    path = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir,
        "EXPERIMENTS.json")
    with open(path) as f:
        data = json.load(f)
    rep = Report()
    for check in (fig1, fig4, fig5, fig6, fig7, fig8, table3, table4,
                  sec68):
        check(data, rep)
    rep.print()
    bad = rep.failed()
    print("\n%d claims: %d failed" % (len(rep.records), len(bad)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
