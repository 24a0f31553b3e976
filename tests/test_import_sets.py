"""What each placement loads: a placement imports only the modules its
path runs (DESIGN.md §6).

Every case runs in a fresh interpreter and pins the modules a placement
must *not* load — the other placements' planes — after it has done real
work: one 16 → 4 step in process, one step served by the daemon, one
step through each file and staging ``<method>`` line.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.adios import StepStatus
from repro.net.client import connect

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: The in-process placement: no daemon, no sockets, no file format, no
#: telemetry exporter, no offline analysis, no adaptive controller.
NOT_IN_PROCESS = {
    "asyncio", "ssl", "repro.net.protocol", "repro.net.server",
    "repro.transport.tcp", "repro.transport.rdma", "repro.marshal",
    "repro.adios.bp", "repro.adios.query", "repro.adios.aggregate",
    "repro.obs.live", "repro.obs.analysis", "repro.core.adaptive",
}

#: The daemon with telemetry off: no in-process data plane, no client,
#: no file format, no HTTP exporter.
NOT_IN_DAEMON = {
    "repro.core.stream", "repro.core.drain", "repro.core.reader",
    "repro.net.client", "repro.transport.rdma", "repro.adios.bp",
    "repro.adios.query", "repro.obs.live",
}


def _python(code: str, **kwargs) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(SRC)}
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, **kwargs,
    )


def _modules(proc: subprocess.Popen, stdin: str = "") -> set[str]:
    """The JSON list of module names the child prints last."""
    out, _ = proc.communicate(stdin, timeout=60)
    assert proc.returncode == 0, out
    return set(json.loads(out.splitlines()[-1]))


def test_in_process_placement_loads_no_other_plane():
    loaded = _modules(_python("""
        import json, sys
        import numpy as np
        import repro
        from repro.adios import StepStatus, block_decompose

        client = repro.connect("local://")
        shape = (64, 64)
        a = np.arange(64 * 64.0).reshape(shape)
        writers = [client.open("s", "w", rank=r, num_ranks=16) for r in range(16)]
        readers = [client.open("s", "r", rank=r, num_ranks=4) for r in range(4)]
        for w, box in zip(writers, block_decompose(shape, (4, 4))):
            w.begin_step()
            w.write("f", a[box.slices()], box=box, global_shape=shape)
            w.end_step()
        for i, r in enumerate(readers):
            assert r.begin_step(timeout=5.0) is StepStatus.OK
            band = r.read("f", start=(16 * i, 0), count=(16, 64))
            assert np.array_equal(band, a[16 * i:16 * (i + 1)])
            r.end_step()
        for h in writers + readers:
            h.close()
        print(json.dumps(sorted(sys.modules)))
    """))
    assert "repro.core.stream" in loaded
    assert loaded & NOT_IN_PROCESS == set()


def test_daemon_loads_no_data_plane_or_client():
    """The daemon serves one step to a client in another process."""
    daemon = _python("""
        import json, sys
        from repro.net.server import DirectoryDaemon

        d = DirectoryDaemon(telemetry=False)
        d.start()
        print(d.host, d.control_port, flush=True)
        sys.stdin.readline()
        d.stop()
        print(json.dumps(sorted(sys.modules)))
    """)
    try:
        host, port = daemon.stdout.readline().split()
        a = np.arange(12.0)
        with connect(f"flexio://{host}:{port}/public") as client:
            with client.open("s", "w") as w, client.open("s", "r") as r:
                w.begin_step()
                w.write("f", a)
                w.end_step()
                assert r.begin_step(timeout=5.0) is StepStatus.OK
                assert np.array_equal(r.read_block("f", 0), a)
                r.end_step()
        loaded = _modules(daemon, "\n")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate()
    assert "repro.net.server" in loaded
    assert loaded & NOT_IN_DAEMON == set()


#: method -> (its parameters, the module that implements it).
METHODS = {
    "BP": ("", "repro.adios.bp"),
    "MPI_AGGREGATE": ("aggregators=1", "repro.adios.aggregate"),
    "STAGING": ("daemon={daemon};tenant=public", "repro.net.client"),
}


@pytest.mark.parametrize("method", sorted(METHODS))
def test_method_line_opens_without_importing_its_module(method, tmp_path):
    """A ``<method>`` name resolves its module on first lookup: the
    caller imports only the façade."""
    params, module = METHODS[method]
    _modules(_python(f"""
        import json, sys
        import numpy as np
        from repro.adios import RankContext, StepStatus
        from repro.core.api import FlexIO

        params = {params!r}
        if {method!r} == "STAGING":
            from repro.net.server import DirectoryDaemon

            daemon = DirectoryDaemon(telemetry=False)
            daemon.start()
            params = params.format(daemon=f"{{daemon.host}}:{{daemon.control_port}}")
        assert {module!r} not in sys.modules
        flexio = FlexIO.from_xml(f'''
            <adios-config><adios-group name="g"/>
              <method group="g" method={method!r}>{{params}}</method>
            </adios-config>''')
        path, a, ctx = {str(tmp_path / "out.bp")!r}, np.arange(6.0), RankContext(0, 1)
        w = flexio.open_write("g", path, ctx)
        r = flexio.open_read("g", path, ctx) if {method!r} == "STAGING" else None
        w.begin_step()
        w.write("f", a)
        w.end_step()
        w.close()
        r = r or flexio.open_read("g", path, ctx)
        assert r.begin_step(timeout=5.0) is StepStatus.OK
        assert np.array_equal(r.read_block("f", 0), a)
        r.end_step()
        r.close()
        if {method!r} == "STAGING":
            daemon.stop()
        assert {module!r} in sys.modules
        print(json.dumps(sorted(sys.modules)))
    """))
