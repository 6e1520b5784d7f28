#!/usr/bin/env bash
# Tier-1 verification: build, the fast cluster lane, the full test suite
# (including the bench-smoke JSON-schema checks, the transport conformance
# suite and the remote chaos/failover suites), the measured-vs-model
# scale-out and c10k p99-flatness crosschecks, then the stress suite —
# concurrency hammers, networked chaos/failover, the cluster kill/restart
# stress and the reactor net-stress lane (`ctest -L net-stress` runs just
# that lane; the stress label regex picks it up here) — under
# ThreadSanitizer, and the decoder tests under AddressSanitizer +
# UndefinedBehaviorSanitizer (hostile bytes and NaN ranges reach the
# wavelet, archive, photon-list, RMI-frame and /approx decoders). Run
# from the repo root:
#   scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== build (default) ==="
cmake -B build -S . >/dev/null
cmake --build build -j

echo "=== cluster lane (routing, failover, coherence) ==="
(cd build && ctest -L cluster --output-on-failure)

echo "=== full suite (fast tests + stress + bench-smoke) ==="
(cd build && ctest --output-on-failure -j)

echo "=== scale-out crosscheck (measured vs modeled fig5 curve) ==="
python3 bench/validate_bench_json.py BENCH_cluster_scaleout.json \
    BENCH_remote_redirection.json

echo "=== c10k crosscheck (p99 flatness at 10k keep-alive connections) ==="
python3 bench/validate_bench_json.py BENCH_c10k.json

echo "=== progressive-delivery crosscheck (first-paint >= 5x, approx error <= bound) ==="
python3 bench/validate_bench_json.py BENCH_wavelet_progressive.json \
    BENCH_wavelet_approx.json

echo "=== build decoder, query-building, access-path/join and WAL/write-unit tests (HEDC_SANITIZE=address: ASan + UBSan) ==="
asan_tests=(wavelet_test wavelet_codec_fuzz_test analysis_test archive_test
            rhessi_test dm_remote_codec_fuzz_test web_test dm_test
            db_wal_test db_database_test db_concurrency_test
            db_join_test db_property_test db_explain_test)
cmake -B build-asan -S . -DHEDC_SANITIZE=address >/dev/null
cmake --build build-asan -j --target "${asan_tests[@]}"

echo "=== decoder, query-building, access-path/join and WAL/write-unit tests under ASan + UBSan (any finding aborts) ==="
for t in "${asan_tests[@]}"; do
  build-asan/tests/"$t" --gtest_brief=1
done

echo "=== build (HEDC_SANITIZE=thread) ==="
cmake -B build-tsan -S . -DHEDC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j

echo "=== stress suite under TSan (includes cluster kill/restart) ==="
(cd build-tsan && ctest -L stress --output-on-failure)

echo "verify: OK"
