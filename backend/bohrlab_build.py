"""PEP 517/660 build backend for bohrlab that needs only the standard library.

Metadata comes from the ``[project]`` table of ``pyproject.toml``. The hooks
write a pure-Python ``py3-none-any`` wheel of ``src/bohrlab``, an editable
wheel whose ``.pth`` file puts ``src/`` on ``sys.path``, and an sdist that can
be built again with this backend.
"""

import base64
import hashlib
import io
import tarfile
import tomllib
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SDIST_FILES = ("pyproject.toml", "README.md", "backend/bohrlab_build.py")
SUPPORTED = {"name", "version", "description", "requires-python",
             "dependencies", "optional-dependencies", "scripts"}


def _project():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))["project"]
    unknown = set(project) - SUPPORTED
    if unknown:
        raise ValueError(f"[project] keys this backend does not write: {sorted(unknown)}")
    return project


def _metadata(project):
    lines = ["Metadata-Version: 2.1", f"Name: {project['name']}",
             f"Version: {project['version']}", f"Summary: {project['description']}",
             f"Requires-Python: {project['requires-python']}"]
    lines += [f"Requires-Dist: {req}" for req in project.get("dependencies", [])]
    for extra, reqs in project.get("optional-dependencies", {}).items():
        lines.append(f"Provides-Extra: {extra}")
        for req in reqs:
            req, _, env = req.partition(";")
            marker = f'extra == "{extra}"'
            if env.strip():
                marker = f"({env.strip()}) and {marker}"
            lines.append(f"Requires-Dist: {req.strip()}; {marker}")
    return "\n".join(lines) + "\n"


def _stem(project):
    return f"{project['name'].replace('-', '_')}-{project['version']}"


def _sources():
    """(archive path, bytes) for every module of the package, in sorted order."""
    src = ROOT / "src"
    return [(path.relative_to(src).as_posix(), path.read_bytes())
            for path in sorted((src / "bohrlab").rglob("*.py"))]


def _write_wheel(wheel_directory, files):
    project = _project()
    stem = _stem(project)
    dist_info = f"{stem}.dist-info"
    meta = {
        "METADATA": _metadata(project),
        "WHEEL": ("Wheel-Version: 1.0\nGenerator: bohrlab_build\n"
                  "Root-Is-Purelib: true\nTag: py3-none-any\n"),
        "entry_points.txt": "[console_scripts]\n" + "".join(
            f"{name} = {target}\n" for name, target in project.get("scripts", {}).items()),
    }
    files = files + [(f"{dist_info}/{name}", text.encode("utf-8"))
                     for name, text in meta.items()]
    record = []
    for arcname, data in files:
        digest = base64.urlsafe_b64encode(hashlib.sha256(data).digest()).rstrip(b"=")
        record.append(f"{arcname},sha256={digest.decode()},{len(data)}")
    record.append(f"{dist_info}/RECORD,,")
    files.append((f"{dist_info}/RECORD", ("\n".join(record) + "\n").encode("utf-8")))

    name = f"{stem}-py3-none-any.whl"
    with zipfile.ZipFile(Path(wheel_directory) / name, "w", zipfile.ZIP_DEFLATED) as zf:
        for arcname, data in files:
            info = zipfile.ZipInfo(arcname)
            info.external_attr = 0o644 << 16
            zf.writestr(info, data, zipfile.ZIP_DEFLATED)
    return name


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None):
    return _write_wheel(wheel_directory, _sources())


def build_editable(wheel_directory, config_settings=None, metadata_directory=None):
    pth = (f"__editable__.{_stem(_project())}.pth", f"{ROOT / 'src'}\n".encode("utf-8"))
    return _write_wheel(wheel_directory, [pth])


def build_sdist(sdist_directory, config_settings=None):
    project = _project()
    stem = _stem(project)
    files = [(rel, (ROOT / rel).read_bytes()) for rel in SDIST_FILES]
    files += [(f"src/{rel}", data) for rel, data in _sources()]
    files.append(("PKG-INFO", _metadata(project).encode("utf-8")))
    name = f"{stem}.tar.gz"
    with tarfile.open(Path(sdist_directory) / name, "w:gz", format=tarfile.PAX_FORMAT) as tf:
        for rel, data in files:
            info = tarfile.TarInfo(f"{stem}/{rel}")
            info.size, info.mode = len(data), 0o644
            tf.addfile(info, io.BytesIO(data))
    return name
