"""Set-up probe: times ``import sapphire_novelty`` and the backend build.

    python3 bench/probe.py setup BACKEND [ARG]
    python3 bench/probe.py import-cli

``setup`` times, in this fresh interpreter, the import of the package plus
``build_backend(BACKEND, ARG)``. ``import-cli`` times
``import sapphire_novelty.cli``. Both print one JSON object of wall-clock
seconds.

Only the built-in ``sys`` and ``time`` modules are loaded before the timer
starts, so every module the package pulls in is charged to it.
"""

import sys
import time


def build_backend(kind, arg=None):
    """The workload's backend: ``lexical``, ``wordvec`` (ARG is the vector
    file), ``remote`` (ARG is the endpoint) or ``fixture``."""
    import sapphire_novelty as sn

    if kind == "lexical":
        return sn.LexicalBackend()
    if kind == "wordvec":
        return sn.WordVectorBackend.from_file(arg)
    if kind == "remote":
        return sn.RemoteBackend(endpoint=arg)
    from sapphire_novelty.data import fixture_similarities_path

    return sn.FixtureBackend.from_file(fixture_similarities_path())


def check_source(module) -> None:
    """Fail unless ``module`` was imported from this checkout's ``src``."""
    import os

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.commonpath([os.path.abspath(module.__file__), src]) != src:
        raise SystemExit(f"imported {module.__file__}, not the package under {src}")


def main() -> int:
    mode = sys.argv[1]
    started = time.perf_counter()
    if mode == "import-cli":
        import sapphire_novelty.cli as module
    else:
        import sapphire_novelty as module

        imported = time.perf_counter()
        build_backend(*sys.argv[2:])
    done = time.perf_counter()

    import json

    check_source(module)
    result = {"total_s": done - started}
    if mode != "import-cli":
        result["build_s"] = done - imported
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
