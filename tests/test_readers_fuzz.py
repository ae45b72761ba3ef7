"""Mutated MVM1 and PGM files either read or raise ValueError.

The CLI maps ValueError to a clean `mvlci: ...` message and exit code 1,
so any other exception from a reader would surface as a traceback.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvlci.pgm import read_pgm, write_pgm
from mvlci.sensing import MeasurementSet, SensingSpec, measure, read_mvm, select_rows, write_mvm

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# (kind, byte offset, bytes).  Offsets favour the header, where the
# readers branch; the bytes are arbitrary or header characters.
MUTATION = st.tuples(
    st.sampled_from(["overwrite", "insert", "delete", "truncate"]),
    st.integers(0, 120) | st.integers(0, 1 << 10),
    st.binary(min_size=1, max_size=8)
    | st.text("0123456789-+.eE \n#=", min_size=1, max_size=8).map(str.encode),
)


def mutate(data: bytes, mutations) -> bytes:
    for kind, pos, blob in mutations:
        pos = min(pos, len(data))
        if kind == "overwrite":
            data = data[:pos] + blob + data[pos + len(blob):]
        elif kind == "insert":
            data = data[:pos] + blob + data[pos:]
        elif kind == "delete":
            data = data[:pos] + data[pos + len(blob):]
        else:
            data = data[:pos]
    return data


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(3)
    spec = SensingSpec(order=64, rows=select_rows(64, 0.25, 21), seed=21, pixel_count=48)
    ms = MeasurementSet(spec=spec, values=[measure(rng.uniform(size=48), spec)
                                           for _ in range(2)],
                        width=8, height=6, rate=0.25, noise_sigma=0.03)
    write_mvm(root / "valid.mvm", ms)
    write_pgm(root / "valid8.pgm", rng.uniform(size=(5, 7)), maxval=255)
    write_pgm(root / "valid16.pgm", rng.uniform(size=(5, 7)), maxval=65535)
    return root


def read_mutated(reader, path, out, mutations):
    out.write_bytes(mutate(path.read_bytes(), mutations))
    try:
        reader(out)
    except ValueError:
        pass


@FUZZ
@given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_mvm_reads_or_raises_value_error(files, mutations):
    read_mutated(read_mvm, files / "valid.mvm", files / "mutated.mvm", mutations)


@FUZZ
@given(maxval=st.sampled_from([8, 16]),
       mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_pgm_reads_or_raises_value_error(files, maxval, mutations):
    read_mutated(read_pgm, files / f"valid{maxval}.pgm", files / "mutated.pgm", mutations)
