import importlib
import re
import shlex
from pathlib import Path

from spikeslab import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    # the first python block under "## Library use", run as written, so the
    # documented calls stay in step with the code
    section = README.read_text().split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README} (Library use)", "exec"), namespace)
    assert namespace["medians"].shape == (2, 20, 500)


def test_command_line_examples_parse():
    # every spikeslab line of the "## Command line" block, its backslash
    # continuations joined, parses with the CLI's own parser, so a renamed
    # or removed flag fails here instead of leaving the docs stale
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("spikeslab ")]
    assert len(commands) == 6
    parser = cli.make_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


def test_named_code_exists():
    # every backticked name qualified by a module of the map below
    # (`logpoly._forward`, `slabs.SlabValues(slab, x)`, `cli.main`) and
    # every backticked bare private name
    # (`_product`) exists in a spikeslab module, so a renamed or deleted
    # function fails here instead of leaving the docs stale
    text = README.read_text()
    modules = {name: importlib.import_module(f"spikeslab.{name}") for name in
               ("logpoly", "slabs", "posterior", "harness", "dimension", "cli", "estimators")}
    qualified = re.findall(rf"`({'|'.join(modules)})\.(\w+)", text)
    bare = re.findall(r"`(_\w+)[`(]", text)
    assert qualified and bare
    missing = [f"{module}.{name}" for module, name in qualified
               if not hasattr(modules[module], name)]
    missing += [name for name in bare
                if not any(hasattr(module, name) for module in modules.values())]
    assert not missing, f"README names {missing}, which no spikeslab module has"
