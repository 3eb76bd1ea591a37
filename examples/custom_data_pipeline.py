"""Bring-your-own-data: CSV trip records -> custom dataset.

Shows the custom-dataset path (paper Section III-A1): instead of a
ready-to-use benchmark dataset, raw records are read from a CSV file
(the format of the NYC-TLC trip listing), preprocessed with
``STManager``, and wrapped directly as a ``CustomGridDataset``; the
same aggregate frame then goes through the DFtoTorch converter's two
stages by hand.

Run:  python examples/custom_data_pipeline.py
"""

import os
import tempfile

from repro.core.converter import DFFormatter, RowTransformer, SpatiotemporalSpec
from repro.core.datasets.grid import CustomGridDataset
from repro.core.datasets.synth import generate_trip_records
from repro.core.preprocessing.grid import STManager
from repro.engine import Session
from repro.engine.io_csv import write_csv
from repro.geometry.envelope import Envelope

CITY = Envelope(-74.05, -73.75, 40.6, 40.9)
GRID_X, GRID_Y = 8, 10
STEP = 1800.0
NUM_STEPS = 48 * 2


def write_csv_records(session, path: str, num_records: int = 30_000) -> None:
    """Pretend-export: trip records as a CSV file."""
    records = generate_trip_records(
        num_records, CITY, num_steps=NUM_STEPS, step_seconds=STEP, seed=11
    )
    write_csv(
        session.create_dataframe(
            {name: records[name] for name in ("lat", "lon", "pickup_time")}
        ),
        path,
    )


def main():
    workdir = tempfile.mkdtemp(prefix="custom_data_")
    path = os.path.join(workdir, "trips.csv")
    session = Session(default_parallelism=4)
    write_csv_records(session, path)
    print(f"wrote raw records to {path}")

    # Scan the file lazily, partition by partition.
    df = session.read_csv(path, rows_per_partition=10_000)
    print(f"scanned {df.num_partitions()} partitions, {df.count()} records")

    # Raw records -> aggregated grid DataFrame -> trainable dataset.
    spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
    st_df = STManager.get_st_grid_dataframe(
        spatial,
        geometry="point",
        partitions_x=GRID_X,
        partitions_y=GRID_Y,
        col_date="pickup_time",
        step_duration_sec=STEP,
        envelope=CITY,
        temporal_origin=0.0,
    )
    dataset = CustomGridDataset.from_st_dataframe(
        st_df, GRID_X, GRID_Y, num_steps=NUM_STEPS
    )
    dataset.set_sequential_representation(history_length=6, prediction_length=1)
    x, y = dataset[0]
    print(f"custom dataset ready: {len(dataset)} samples, "
          f"history {x.shape} -> target {y.shape}")

    # Section III-C: the DFtoTorch converter's two stages over the same
    # aggregate frame, run by hand — the DF Formatter's distributed map
    # into per-timestep frames, then the Row Transformer's batches.
    spec = SpatiotemporalSpec(GRID_X, GRID_Y)
    frames = DFFormatter(spec).format(st_df)
    x, y = next(iter(RowTransformer(frames, 16, spec=spec)))
    print(f"converter batch: frames {x.shape} -> next frames {y.shape}")


if __name__ == "__main__":
    main()
