"""``configparser`` as the reference reader for isoflow config files.

``isoflow.cli`` reads a config file in one pass over its lines.  On the
format the README documents (``[section]`` headers, ``key = value`` lines,
blank lines and full-line ``#`` or ``;`` comments) it must return what
``configparser`` returns when told to keep key case and not to
interpolate, which is how the CLI read configs before.
"""

import configparser


def read_config(path) -> list[tuple[str, str | None, dict]]:
    """``(name, construction, params)`` for each section of the file, in order."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case
    with open(path, encoding="utf-8") as handle:
        parser.read_file(handle)
    sections = []
    for section in parser.sections():
        params = dict(parser.items(section))
        sections.append((section, params.pop("construction", None), params))
    return sections
