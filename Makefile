# Anception reproduction — developer entry points.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench examples all-experiments lint trace-demo chaos-demo profile-demo coverage clean

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/exploit_walkthrough.py
	$(PYTHON) examples/security_study.py
	$(PYTHON) examples/secure_storage.py
	$(PYTHON) examples/media_pipeline.py
	$(PYTHON) examples/reproduce_paper.py

all-experiments:
	$(PYTHON) -m repro.cli all

lint:
	$(PYTHON) -m compileall -q src tests benchmarks
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; compileall only"; \
	fi

trace-demo:
	$(PYTHON) -m repro.cli trace table1 --format chrome --out table1-trace.json
	$(PYTHON) -m repro.cli trace table1 --format ftrace
	$(PYTHON) -m repro.cli metrics table1

chaos-demo:
	$(PYTHON) -m repro.cli chaos fileops --seed 7 --out chaos-a.json --trace-out chaos-trace.json
	$(PYTHON) -m repro.cli chaos fileops --seed 7 --out chaos-b.json
	cmp chaos-a.json chaos-b.json && echo "chaos run is byte-identical across replays"

profile-demo:
	$(PYTHON) perfbench/run.py --workload fleet_async --seed 1 --seconds 2 --trace 1
	$(PYTHON) -m repro.cli trace writeburst --out writeburst-trace.json
	$(PYTHON) -m repro.cli report writeburst-trace.json

coverage:
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term-missing --cov-fail-under=85

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis *.egg-info
	rm -f chaos-a.json chaos-b.json chaos-trace.json table1-trace.json
	rm -f writeburst-trace.json
