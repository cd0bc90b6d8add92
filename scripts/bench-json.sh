#!/bin/sh
# bench-json.sh — convert `go test -bench` output on stdin into the
# BENCH_*.json trajectory formats.
#
# Default mode handles BenchmarkRunParallel: one record per benchmark
# with its ns/op, the speedup of every parallelism level relative to
# parallelism-1 of the same workload, and any extra b.ReportMetric
# columns the benchmark emitted (the engine's RunResult.Stats view:
# fired, delta_evals, eval_p99_ns, mergewait_p99_ns).
#
# With -tree the input is BenchmarkTree (run with -benchmem): one record
# per operation/variant with ns_per_op, bytes_per_op and allocs_per_op,
# plus each variant's speedup relative to the "naive" variant of the
# same operation.
#
# With -fleet the input is BenchmarkFleet (run with -benchmem): one
# record per operation/variant with ns_per_op, wire_bytes_per_op (the
# remote's served bytes per sync, from the wireB/op ReportMetric column),
# bytes_per_op and allocs_per_op, plus each variant's speedup relative
# to the "full" re-pull variant of the same operation.
#
# With -load the input is `axml-loadgen -fleet N -bench` output: one
# record per LOADGEN workload/variant line, carrying ns_per_op (mean
# request latency, or 1e9/achieved_rps for the capacity leaf) and every
# other key=value field on the line (p50_ns, p99_ns, p999_ns, rps,
# sent, errors, max_rps).
#
# Usage:
#   go test -bench BenchmarkRunParallel ... | scripts/bench-json.sh
#   go test -bench 'BenchmarkTree$' -benchmem ... | scripts/bench-json.sh -tree
#   go test -bench 'BenchmarkFleet$' -benchmem ... | scripts/bench-json.sh -fleet
#   go run ./cmd/axml-loadgen -fleet 3 -bench | scripts/bench-json.sh -load
set -eu

mode=parallel
if [ "${1-}" = "-tree" ]; then
    mode=tree
    shift
elif [ "${1-}" = "-fleet" ]; then
    mode=fleet
    shift
elif [ "${1-}" = "-load" ]; then
    mode=load
    shift
fi

if [ "$mode" = load ]; then
    awk '
    /^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
    /^LOADGEN / && NF >= 3 {
        split($2, part, "/")               # workload / variant
        wl = part[1]; v = part[2]
        for (f = 3; f <= NF; f++) {
            split($f, kv, "=")
            if (kv[1] == "ns_per_op") ns[wl, v] = kv[2] + 0
            else ex[wl, v] = ex[wl, v] sprintf(", \"%s\": %g", kv[1], kv[2] + 0)
        }
        if (!(wl in seen)) { order[++n] = wl; seen[wl] = 1 }
        if (!((wl, v) in vseen)) { vars[wl] = vars[wl] " " v; vseen[wl, v] = 1 }
    }
    END {
        printf "{\n"
        printf "  \"benchmark\": \"axml-loadgen\",\n"
        printf "  \"date\": \"%s\",\n", strftime("%Y-%m-%d")
        printf "  \"cpu\": \"%s\",\n", cpu
        printf "  \"workloads\": {\n"
        for (i = 1; i <= n; i++) {
            wl = order[i]
            printf "    \"%s\": {\n", wl
            m = split(substr(vars[wl], 2), vv, " ")
            for (j = 1; j <= m; j++) {
                v = vv[j]
                printf "      \"%s\": {\"ns_per_op\": %.0f%s}%s\n", \
                    v, ns[wl, v], ex[wl, v], (j < m ? "," : "")
            }
            printf "    }%s\n", (i < n ? "," : "")
        }
        printf "  }\n}\n"
    }'
    exit $?
fi

if [ "$mode" = fleet ]; then
    awk '
    /^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
    /^BenchmarkFleet\// && NF >= 4 {
        name = $1
        sub(/^BenchmarkFleet\//, "", name)
        sub(/-[0-9]+$/, "", name)          # strip the -GOMAXPROCS suffix
        split(name, part, "/")             # operation / variant
        op = part[1]; v = part[2]
        ns[op, v] = $3
        # Metric columns come in value/unit pairs after "ns/op".
        for (f = 5; f + 1 <= NF; f += 2) {
            if ($(f + 1) == "B/op") bytes[op, v] = $f + 0
            else if ($(f + 1) == "allocs/op") allocs[op, v] = $f + 0
            else if ($(f + 1) == "wireB/op") wire[op, v] = $f + 0
        }
        if (!(op in seen)) { order[++n] = op; seen[op] = 1 }
        if (!((op, v) in vseen)) { vars[op] = vars[op] " " v; vseen[op, v] = 1 }
    }
    END {
        printf "{\n"
        printf "  \"benchmark\": \"BenchmarkFleet\",\n"
        printf "  \"date\": \"%s\",\n", strftime("%Y-%m-%d")
        printf "  \"cpu\": \"%s\",\n", cpu
        printf "  \"workloads\": {\n"
        for (i = 1; i <= n; i++) {
            op = order[i]
            printf "    \"%s\": {\n", op
            m = split(substr(vars[op], 2), vv, " ")
            for (j = 1; j <= m; j++) {
                v = vv[j]
                extra = ""
                if ((op, v) in wire)
                    extra = extra sprintf(", \"wire_bytes_per_op\": %.0f", wire[op, v])
                if ((op, v) in bytes)
                    extra = extra sprintf(", \"bytes_per_op\": %.0f", bytes[op, v])
                if ((op, v) in allocs)
                    extra = extra sprintf(", \"allocs_per_op\": %.0f", allocs[op, v])
                if (v != "full" && (op, "full") in ns && ns[op, v] > 0)
                    extra = extra sprintf(", \"speedup_vs_full\": %.1f", ns[op, "full"] / ns[op, v])
                if (v != "full" && (op, "full") in wire && wire[op, v] > 0)
                    extra = extra sprintf(", \"wire_ratio_vs_full\": %.4f", wire[op, v] / wire[op, "full"])
                printf "      \"%s\": {\"ns_per_op\": %.0f%s}%s\n", \
                    v, ns[op, v], extra, (j < m ? "," : "")
            }
            printf "    }%s\n", (i < n ? "," : "")
        }
        printf "  }\n}\n"
    }'
    exit $?
fi

if [ "$mode" = tree ]; then
    awk '
    /^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
    /^BenchmarkTree\// && NF >= 4 {
        name = $1
        sub(/^BenchmarkTree\//, "", name)
        sub(/-[0-9]+$/, "", name)          # strip the -GOMAXPROCS suffix
        split(name, part, "/")             # operation / variant
        op = part[1]; v = part[2]
        ns[op, v] = $3
        # -benchmem columns come in value/unit pairs after "ns/op".
        for (f = 5; f + 1 <= NF; f += 2) {
            if ($(f + 1) == "B/op") bytes[op, v] = $f + 0
            else if ($(f + 1) == "allocs/op") allocs[op, v] = $f + 0
        }
        if (!(op in seen)) { order[++n] = op; seen[op] = 1 }
        if (!((op, v) in vseen)) { vars[op] = vars[op] " " v; vseen[op, v] = 1 }
    }
    END {
        printf "{\n"
        printf "  \"benchmark\": \"BenchmarkTree\",\n"
        printf "  \"date\": \"%s\",\n", strftime("%Y-%m-%d")
        printf "  \"cpu\": \"%s\",\n", cpu
        printf "  \"workloads\": {\n"
        for (i = 1; i <= n; i++) {
            op = order[i]
            printf "    \"%s\": {\n", op
            m = split(substr(vars[op], 2), vv, " ")
            for (j = 1; j <= m; j++) {
                v = vv[j]
                extra = ""
                if ((op, v) in bytes)
                    extra = extra sprintf(", \"bytes_per_op\": %.0f", bytes[op, v])
                if ((op, v) in allocs)
                    extra = extra sprintf(", \"allocs_per_op\": %.0f", allocs[op, v])
                if (v != "naive" && (op, "naive") in ns && ns[op, v] > 0)
                    extra = extra sprintf(", \"speedup_vs_naive\": %.1f", ns[op, "naive"] / ns[op, v])
                printf "      \"%s\": {\"ns_per_op\": %.0f%s}%s\n", \
                    v, ns[op, v], extra, (j < m ? "," : "")
            }
            printf "    }%s\n", (i < n ? "," : "")
        }
        printf "  }\n}\n"
    }'
    exit $?
fi

awk '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ && NF >= 4 {
    name = $1
    sub(/^BenchmarkRunParallel\//, "", name)
    split(name, part, "/")             # workload / "parallelism-N[-GOMAXPROCS]"
    wl = part[1]
    split(part[2], lvl, "-")
    par = lvl[2]
    ns[wl, par] = $3
    # Extra metric columns come in value/unit pairs after "ns/op".
    for (f = 5; f + 1 <= NF; f += 2) {
        if ($(f + 1) == "ns/op") continue
        ex[wl, par] = ex[wl, par] sprintf(", \"%s\": %g", $(f + 1), $f + 0)
    }
    if (!(wl in seen)) { order[++n] = wl; seen[wl] = 1 }
    pars[wl] = pars[wl] " " par
}
END {
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkRunParallel\",\n"
    printf "  \"date\": \"%s\",\n", strftime("%Y-%m-%d")
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"workloads\": {\n"
    for (i = 1; i <= n; i++) {
        wl = order[i]
        printf "    \"%s\": {\n", wl
        m = split(substr(pars[wl], 2), p, " ")
        for (j = 1; j <= m; j++) {
            par = p[j]
            speedup = ns[wl, 1] / ns[wl, par]
            printf "      \"parallelism-%s\": {\"ns_per_op\": %.0f, \"speedup_vs_seq\": %.2f%s}%s\n", \
                par, ns[wl, par], speedup, ex[wl, par], (j < m ? "," : "")
        }
        printf "    }%s\n", (i < n ? "," : "")
    }
    printf "  }\n}\n"
}'
