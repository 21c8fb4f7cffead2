package repro.core

import org.apache.spark.{HashPartitioner, SparkException}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DecimalType, IntegerType, LongType, StructField, StructType}
import org.apache.spark.storage.StorageLevel
import repro.graph.LocalGraph
import repro.treelet.{ColoredTreelet, Treelet, TreeletEnum}
import scala.collection.mutable

/** Motivo's build-up phase as distributed dataflow: the dynamic program of
  * Eq. (1) over one vertex-partitioned state RDD.
  *
  * `ColoredTreelet.tryMerge` depends only on the two codes, so Eq. (1)
  * factors through the neighbor sums S_h(v) = Σ_{u~v} c(·, u) at level h:
  *
  *   c(T_C, v) = (1/β_T) Σ_{h2 < h} Σ_{ct1, ct2 ↦ T_C} c(ct1, v) · S_{h2}(v)[ct2]
  *
  * Each vertex keeps its color, its adjacency, its level tables and its
  * neighbor sums; all of it lives in one RDD hash-partitioned by vertex
  * into `spark.sql.shuffle.partitions` parts. Level h costs one shuffle
  * (every vertex sends its level-(h−1) table to its neighbors, combined
  * into S_{h−1}) and one narrow co-partitioned step that evaluates the sum
  * above per vertex. Lineage grows linearly in k.
  *
  * Level h is exposed as a DataFrame (v: Long, tc: Long, cnt: Decimal(38,0))
  * over the state — a single `LogicalRDD` node whatever h is.
  *
  * Fidelity notes:
  * - counts are exact `BigInt`s inside the DP; `Decimal(38,0)` appears only
  *   at the DataFrame boundary ([[toCountDecimal]]), which fails loudly on
  *   counts of 10^38 or more — about where the paper's 128-bit counters
  *   overflow;
  * - 0-rooting (§3.2): at h = k only color-0 roots are produced;
  * - biased coloring (§3.4) arrives through the colors DataFrame;
  * - greedy flushing / mmap I/O become persist(MEMORY_AND_DISK) per level —
  *   Spark's native spill plays the role of the paper's disk tables.
  */
object BuildUp {

  val CountType: DecimalType = DecimalType(38, 0)

  private val CountLimit = BigInt(10).pow(38)

  /** The one `BigInt` → `Decimal(38,0)` conversion: throws
    * `ArithmeticException` when |c| ≥ 10^38.
    */
  def toCountDecimal(c: BigInt): java.math.BigDecimal = {
    if (c.abs >= CountLimit)
      throw new ArithmeticException(s"count $c does not fit Decimal(38,0)")
    new java.math.BigDecimal(c.bigInteger)
  }

  private val LevelSchema = StructType(Seq(
    StructField("v", LongType, nullable = false),
    StructField("tc", LongType, nullable = false),
    StructField("cnt", CountType, nullable = false)))

  /** One vertex's counts at one level: codes ascending, exact counts.
    * Counts that all fit a `Long` are kept in a primitive array: Spark's
    * size estimates of cached and shuffled tables then need not walk one
    * `BigInt` object per entry.
    */
  private[core] final class Table private (val codes: Array[Long], longs: Array[Long], bigs: Array[BigInt])
      extends Serializable {
    def size: Int = codes.length
    def counts: Array[BigInt] = if (bigs != null) bigs else longs.map(BigInt(_))
    def total: BigInt = counts.foldLeft(BigInt(0))(_ + _)
  }

  private[core] object Table {
    def apply(codes: Array[Long], counts: Array[BigInt]): Table =
      if (counts.forall(_.isValidLong)) new Table(codes, counts.map(_.toLong), null)
      else new Table(codes, null, counts)

    val Empty: Table = apply(Array.emptyLongArray, Array.empty[BigInt])

    /** Entry-wise sum of two sorted tables. */
    def add(a: Table, b: Table): Table = {
      val (ac, bc) = (a.counts, b.counts)
      val codes = new Array[Long](a.size + b.size)
      val counts = new Array[BigInt](a.size + b.size)
      var i = 0; var j = 0; var n = 0
      while (i < a.size || j < b.size) {
        if (j == b.size || (i < a.size && a.codes(i) < b.codes(j))) {
          codes(n) = a.codes(i); counts(n) = ac(i); i += 1
        } else if (i == a.size || b.codes(j) < a.codes(i)) {
          codes(n) = b.codes(j); counts(n) = bc(j); j += 1
        } else {
          codes(n) = a.codes(i); counts(n) = ac(i) + bc(j); i += 1; j += 1
        }
        n += 1
      }
      apply(java.util.Arrays.copyOf(codes, n), java.util.Arrays.copyOf(counts, n))
    }
  }

  /** Per-vertex DP state after level h: `tables(i)` holds level i+1 and
    * `sums(i)` the neighbor sum S_{i+1}.
    */
  private[core] final class VertexState(val color: Int, val adj: Array[Long],
                                        val tables: Array[Table], val sums: Array[Table])
      extends Serializable {

    /** Level h from levels 1..h−1 and the newly arrived S_{h−1}. */
    def next(h: Int, k: Int, zeroRoot: Boolean, sum: Table): VertexState = {
      val allSums = sums :+ sum
      val table = if (zeroRoot && h == k && color != 0) Table.Empty else eq1(h, allSums)
      new VertexState(color, adj, tables :+ table, if (h == k) Array.empty else allSums)
    }

    private def eq1(h: Int, allSums: Array[Table]): Table = {
      val acc = mutable.HashMap.empty[Long, BigInt]
      var h2 = 1
      while (h2 < h) {
        val left = tables(h - h2 - 1); val right = allSums(h2 - 1)
        val (lc, rc) = (left.counts, right.counts)
        var i = 0
        while (i < left.size) {
          var j = 0
          while (j < right.size) {
            val m = ColoredTreelet.tryMerge(left.codes(i), right.codes(j))
            if (m != -1L) acc(m) = acc.getOrElse(m, BigInt(0)) + lc(i) * rc(j)
            j += 1
          }
          i += 1
        }
        h2 += 1
      }
      val codes = acc.keys.toArray
      java.util.Arrays.sort(codes)
      // β_T division of Eq. (1) — exact; non-divisibility is a bug.
      Table(codes, codes.map { ct =>
        val c = acc(ct)
        val b = Treelet.beta(ColoredTreelet.shape(ct))
        if (b == 1) c
        else {
          val (q, r) = c /% BigInt(b)
          require(r == 0, s"β-division remainder: c=$c β=$b ct=${ColoredTreelet.toPrettyString(ct)}")
          q
        }
      })
    }
  }

  final class Result private[BuildUp] (val spark: SparkSession, val k: Int, val zeroRoot: Boolean,
                                       state: RDD[(Long, VertexState)], val pairCounts: Seq[Long]) {

    /** Level h DataFrames, 1-based through [[level]]. */
    val levels: IndexedSeq[DataFrame] = (1 to k).map(levelFrame(spark, state, _))

    /** Level h table, 1-based: (v, tc, cnt). */
    def level(h: Int): DataFrame = levels(h - 1)

    /** t: total number of colorful k-treelet copies (0-rooted ⇒ each once). */
    lazy val totalTreelets: BigInt = {
      val top = k - 1
      state.map(_._2.tables(top).total).fold(BigInt(0))(_ + _)
    }

    /** r_j of AGS: copies per free k-treelet shape. */
    lazy val totalsByShape: Map[Int, BigInt] = {
      val top = k - 1
      state.flatMap { case (_, s) =>
        val t = s.tables(top)
        t.codes.iterator.map(ct => TreeletEnum.freeShape(ColoredTreelet.shape(ct))).zip(t.counts)
      }.reduceByKey(_ + _).collect().toMap
    }

    /** Collect into the in-memory engine's representation (small graphs
      * only), in one job — bridges the Spark DP to the local samplers and
      * to exact equality tests against [[LocalEngine]].
      */
    def toLocalResult(g: LocalGraph, colors: Array[Int]): LocalEngine.Result = {
      val tables = new Array[LocalEngine.Level](k + 1)
      for (h <- 1 to k) tables(h) = Array.fill(g.n)(mutable.HashMap.empty[Long, BigInt])
      for ((v, ts) <- state.mapValues(_.tables).collect(); h <- 1 to k) {
        tables(h)(v.toInt) ++= ts(h - 1).codes.iterator.zip(ts(h - 1).counts)
      }
      LocalEngine.Result(g, colors, k, zeroRoot, tables)
    }

    def unpersist(): Unit = state.unpersist(blocking = false)
  }

  private def levelFrame(spark: SparkSession, state: RDD[(Long, VertexState)], h: Int): DataFrame =
    spark.createDataFrame(state.flatMap { case (v, s) =>
      val t = s.tables(h - 1)
      t.codes.iterator.zip(t.counts).map { case (ct, c) => Row(v, ct, toCountDecimal(c)) }
    }, LevelSchema)

  /** Run the DP. Every level is computed by exactly one DataFrame action,
    * in level order.
    *
    * @param edges    symmetric simple edge list (src, dst), both directions
    * @param colors   (v, col) with col in [0, k)
    * @param zeroRoot restrict level k to color-0 roots (§3.2)
    * @throws IllegalArgumentException on a self-loop, a duplicated directed
    *         edge, an edge endpoint without a row in `colors`, a vertex with
    *         more than one row in `colors`, or a color outside [0, k)
    */
  def run(spark: SparkSession, edges: DataFrame, colors: DataFrame, k: Int,
          zeroRoot: Boolean = true,
          storage: StorageLevel = StorageLevel.MEMORY_AND_DISK): Result = {
    require(k >= 2 && k <= 8, s"k=$k out of [2,8]")
    val part = new HashPartitioner(spark.conf.get("spark.sql.shuffle.partitions").toInt)
    val arcs = edges.select(col("src").cast(LongType), col("dst").cast(LongType)).rdd
      .map(r => (r.getLong(0), r.getLong(1)))
    val colorOf = colors.select(col("v").cast(LongType), col("col").cast(IntegerType)).rdd
      .map(r => (r.getLong(0), r.getInt(1)))

    // Keyed by source and, through the swapped arcs, by destination too, so
    // every edge endpoint meets its color row here (or its absence).
    val level1 = colorOf.cogroup(arcs, arcs.map(_.swap), part).mapPartitions(_.map {
      case (v, (cs, out, _)) =>
        if (cs.isEmpty)
          throw new IllegalArgumentException(s"edge endpoint $v has no row in colors")
        val adj = out.toArray.sorted
        if (java.util.Arrays.binarySearch(adj, v) >= 0)
          throw new IllegalArgumentException(s"self-loop at vertex $v")
        for (i <- 1 until adj.length if adj(i) == adj(i - 1))
          throw new IllegalArgumentException(s"duplicated edge ($v, ${adj(i)})")
        if (cs.size > 1)
          throw new IllegalArgumentException(s"vertex $v has ${cs.size} rows in colors")
        val c = cs.head
        if (c < 0 || c >= k)
          throw new IllegalArgumentException(s"color $c of vertex $v outside [0, $k)")
        v -> new VertexState(c, adj, Array(Table(Array(ColoredTreelet.singleton(c)), Array(BigInt(1)))),
                             Array.empty)
    }, preservesPartitioning = true)

    val pairs = mutable.ArrayBuffer.empty[Long]
    var state: RDD[(Long, VertexState)] = level1.persist(storage)
    pairs += countLevel(spark, state, 1)
    for (h <- 2 to k) {
      val sum = state
        .flatMap { case (_, s) =>
          val t = s.tables(h - 2)
          if (t.size == 0) Iterator.empty else s.adj.iterator.map(u => (u, t))
        }
        .combineByKey[Table](identity[Table] _, Table.add _, Table.add _, part)
      val next = state.leftOuterJoin(sum, part)
        .mapValues { case (s, in) => s.next(h, k, zeroRoot, in.getOrElse(Table.Empty)) }
        .persist(storage)
      pairs += countLevel(spark, next, h)
      state.unpersist(blocking = false)
      state = next
    }
    new Result(spark, k, zeroRoot, state, pairs.toSeq)
  }

  /** The level's one DataFrame action; its pair count. A malformed-input
    * `IllegalArgumentException` from a task is rethrown as is.
    */
  private def countLevel(spark: SparkSession, state: RDD[(Long, VertexState)], h: Int): Long =
    try levelFrame(spark, state, h).count()
    catch {
      case e: SparkException =>
        Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
          .collectFirst { case iae: IllegalArgumentException => iae }
          .foreach { iae => state.unpersist(blocking = false); throw iae }
        throw e
    }

  /** Convenience: run on a LocalGraph with a given coloring. */
  def runLocalGraph(spark: SparkSession, g: LocalGraph, coloring: repro.color.Coloring,
                    zeroRoot: Boolean = true): Result = {
    val edges = repro.graph.Graphs.edgesDF(spark, g)
    val colors = coloring.colorsDF(spark, g.n.toLong)
    run(spark, edges, colors, coloring.k, zeroRoot)
  }
}
